package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"janus/internal/catalog"
	"janus/internal/hints"
)

// TestReadBody pins the request-body read both catalog and bundle pushes
// go through. A body that declares its length costs one allocation, the
// buffer itself: falling back to io.ReadAll would add only a few dozen
// allocations to a whole reload, too few for the bench guard to notice,
// but would allocate several times the body's size.
func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte(`{"ranges":[]}`), 1<<16)
	rd := bytes.NewReader(data)
	req := httptest.NewRequest(http.MethodPut, "/v1/catalog", rd)
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(data)
		got, err := readBody(rec, req, 64<<20)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("sized read returned %d bytes, %v", len(got), err)
		}
	})
	if allocs != 1 {
		t.Fatalf("sized read of %d bytes made %v allocations, want the one buffer", len(data), allocs)
	}

	// No declared length: read whole, under the limit.
	rd.Reset(data)
	req.ContentLength = -1
	if got, err := readBody(rec, req, 64<<20); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("unsized read returned %d bytes, %v", len(got), err)
	}
	rd.Reset(data)
	var tooLarge *http.MaxBytesError
	if _, err := readBody(rec, req, 1024); !errors.As(err, &tooLarge) {
		t.Fatalf("unsized read past the limit: %v", err)
	}
	// A declared length past the limit is refused before any buffer is
	// sized from it.
	rd.Reset(data)
	req.ContentLength = 1 << 40
	if _, err := readBody(rec, req, 64<<20); !errors.As(err, &tooLarge) {
		t.Fatalf("declared length past the limit: %v", err)
	}
	// A body that ends before its declared length is an error.
	rd.Reset(data)
	req.ContentLength = int64(len(data)) + 1
	if _, err := readBody(rec, req, 64<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: %v", err)
	}
}

// TestCatalogPutShortBodyAnswers400 sends a complete, valid catalog over
// a real connection under a Content-Length 100 bytes longer, then closes
// the sending side: the push is a 400 and the running catalog stays.
func TestCatalogPutShortBodyAnswers400(t *testing.T) {
	srv, ts := serveCatalog(t, twoTenantCatalog(t, 1100, 2200))
	body, err := json.Marshal(twoTenantCatalog(t, 1300, 2200))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "PUT /v1/catalog HTTP/1.1\r\nHost: janusd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body)+100, body); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || eb.Code != CodeInvalidRequest {
		t.Fatalf("short body answered %d %+v", resp.StatusCode, eb)
	}
	if g := srv.Registry().Generation(); g != 1 {
		t.Fatalf("short body moved the generation to %d", g)
	}
}

// reloadCatalogs generates two catalog bodies shaped like the daemon
// benchmark's reload pair: 200 keyed tenants with quotas, tenant i
// deploying 1+i%4 of four bundles of ~270 ranges (one with shape
// variants), plus eight spare tenants, which are the only difference
// between the two catalogs. Each body is about 9 MB of compact JSON.
func reloadCatalogs(tb testing.TB) [2][]byte {
	tb.Helper()
	r := rand.New(rand.NewSource(1))
	table := func(wf string, group int) *hints.Table {
		t := &hints.Table{Workflow: wf, Suffix: group, Batch: 1, Weight: 1}
		start := 200 + r.Intn(400)
		for k := 0; k < 90; k++ {
			end := start + r.Intn(40)
			t.Ranges = append(t.Ranges, hints.Range{StartMs: start, EndMs: end, Millicores: 100 * (1 + r.Intn(30)), Percentile: 1 + r.Intn(99)})
			start = end + 1
		}
		return t
	}
	bundles := make([]*hints.Bundle, 4)
	for i := range bundles {
		wf := fmt.Sprintf("wf%d", i)
		b := &hints.Bundle{Workflow: wf, Batch: 1, Weight: 1, SLOMs: 3000, MaxMillicores: 3000}
		for g := 0; g < 3; g++ {
			b.Tables = append(b.Tables, table(wf, g))
		}
		if i == 3 {
			b.Shaped = map[int]map[string]*hints.Table{1: {"w=2": table(wf, 1), "w=3": table(wf, 1)}}
		}
		bundles[i] = b
	}
	quota := &catalog.Quota{RatePerSec: 1e12, Burst: 1 << 40}
	var out [2][]byte
	for k := range out {
		f := &catalog.File{Version: k + 1, Tenants: map[string]*catalog.Tenant{}}
		for i := 0; i < 200; i++ {
			t := &catalog.Tenant{APIKey: fmt.Sprintf("key-%03d", i), Quota: quota, Workflows: map[string]*catalog.Entry{}}
			for j := 0; j <= i%4; j++ {
				b := bundles[(i/4+j)%4]
				t.Workflows[b.Workflow] = &catalog.Entry{Bundle: b}
			}
			f.Tenants[fmt.Sprintf("t%03d", i)] = t
		}
		for i := 0; i < 8; i++ {
			b := bundles[k]
			f.Tenants[fmt.Sprintf("spare%d", i)] = &catalog.Tenant{
				APIKey:    fmt.Sprintf("spare-%d", i),
				Workflows: map[string]*catalog.Entry{b.Workflow: {Bundle: b}},
			}
		}
		data, err := json.Marshal(f)
		if err != nil {
			tb.Fatal(err)
		}
		out[k] = data
	}
	return out
}

// BenchmarkCatalogReload is one whole-catalog reload as janusd serves it:
// PUT /v1/catalog through Server.Handler() on a recorder, alternating two
// generated catalogs that differ in eight of 208 tenants, so every other
// (tenant, workflow) pair is compared and carried over. The request's
// Content-Length is set from the body, as Go clients set it for a byte
// slice. One op is one read, parse, validate, compare and swap.
func BenchmarkCatalogReload(b *testing.B) {
	bodies := reloadCatalogs(b)
	srv := NewServer()
	f, err := catalog.Parse(bodies[0])
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := srv.Registry().Load(f); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPut, "/v1/catalog", bytes.NewReader(bodies[(i+1)%2]))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("reload %d answered %d: %s", i, rec.Code, rec.Body)
		}
	}
}
