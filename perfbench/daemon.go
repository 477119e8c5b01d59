package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"janus/internal/adapter"
	"janus/internal/catalog"
	"janus/internal/experiment"
	"janus/internal/hints"
	"janus/internal/httpapi"
	"janus/internal/workflow"
)

// The daemon workload serves httpapi.Server.Handler() — built with
// janusd's adapter options — on a loopback listener inside this process,
// and drives it with a closed loop of decides from a Zipf-skewed catalog
// of tenants while whole-catalog reloads land at fixed decide-count
// marks. Server and load generator share one process: on a 2-vCPU host a
// separate janusd measures the OS scheduler, not the program.
const (
	// daemonTenants is the number of tenants in the decide stream; each
	// deploys 1-4 of the ia/va/dag/trigger-ml bundles.
	daemonTenants = 200
	// spareTenants sit outside the decide stream. The two reload
	// catalogs differ only in these, so every decide answer stays
	// checkable across reloads.
	spareTenants = 8
	// decidesPerPass is one decide pass's fixed request count.
	decidesPerPass = 40000
	// reloadsPerPass is how many PUT /v1/catalog land in a pass, one in
	// the middle of every decidesPerPass/reloadsPerPass decides.
	reloadsPerPass = 4
	// zipfS skews tenant popularity.
	zipfS = 1.1
	// bundleSeed roots the profiling and synthesis of the catalog's
	// bundles. It is fixed, so every workload seed serves the same tables
	// and the catalog's size does not move with the seed (table sizes vary
	// by ±10% across profiling seeds, and the reload path's memory with
	// them); the workload seed draws the tenants' popularity ranks and the
	// decide stream.
	bundleSeed = 1
	// maxConns caps the closed loop's keep-alive connections; the loop
	// uses one per CPU up to this cap.
	maxConns = 4
)

// decideCall is one decide of the seeded sequence with the answer the
// deployed bundle's own tables give.
type decideCall struct {
	key     string
	body    []byte
	req     httpapi.DecideRequest
	wantMC  int
	wantHit bool
}

// daemonSetup is the daemon workload after set-up: a booted server on a
// loopback listener, the reload bodies, and the decide sequence.
type daemonSetup struct {
	srv      *httpapi.Server
	server   *http.Server
	served   chan error
	url      string
	adminKey string
	catalogs [2][]byte
	calls    []decideCall
	// notified counts the adapters' regeneration notifications, which
	// janusd logs.
	notified atomic.Int64
}

// setupDaemon synthesizes the bundles, builds the two reload catalogs,
// boots the registry from the first, and brings the listener up.
func setupDaemon(seed uint64, l *ledger) (*daemonSetup, error) {
	spec := simSpec{suite: experiment.Config{Seed: bundleSeed, ProfilerSamples: 2000, BudgetStepMs: 1}}
	p := newPipeline(spec)
	dag, err := experiment.DAGWorkflow()
	if err != nil {
		return nil, err
	}
	trig, err := experiment.TriggerWorkflow()
	if err != nil {
		return nil, err
	}
	var bundles []*hints.Bundle
	for _, w := range []*workflow.Workflow{workflow.IntelligentAssistant(), workflow.VideoAnalyze(), dag, trig} {
		t, err := p.deploy(w.Name(), w, l)
		if err != nil {
			return nil, err
		}
		bundles = append(bundles, t.bundle)
	}

	end := l.begin("catalog.build")
	d := &daemonSetup{adminKey: fmt.Sprintf("admin-%d", seed)}
	rng := rand.New(rand.NewSource(int64(seed)))
	files := [2]*catalog.File{
		{Version: 1, AdminKey: d.adminKey, Tenants: map[string]*catalog.Tenant{}},
		{Version: 2, AdminKey: d.adminKey, Tenants: map[string]*catalog.Tenant{}},
	}
	// No quota can bind: buckets read the wall clock, so a binding one
	// would make admission depend on timing.
	quota := &catalog.Quota{RatePerSec: 1e12, Burst: 1 << 40}
	// Tenant i deploys 1 + i%4 consecutive bundles, so every bundle
	// appears equally often and the catalog's size depends on the seed
	// only through the bundles themselves; the seed decides which tenant
	// gets which Zipf popularity rank.
	tenants := make([]*catalog.Tenant, daemonTenants)
	for r, i := range rng.Perm(daemonTenants) {
		t := &catalog.Tenant{APIKey: fmt.Sprintf("key-%d-%03d", seed, i), Quota: quota, Workflows: map[string]*catalog.Entry{}}
		for j := 0; j <= i%len(bundles); j++ {
			b := bundles[(i/len(bundles)+j)%len(bundles)]
			t.Workflows[b.Workflow] = &catalog.Entry{Bundle: b}
		}
		tenants[r] = t
		for _, f := range files {
			f.Tenants[fmt.Sprintf("t%03d", i)] = t
		}
	}
	for i := 0; i < spareTenants; i++ {
		for k, f := range files {
			b := bundles[k]
			f.Tenants[fmt.Sprintf("spare%d", i)] = &catalog.Tenant{
				APIKey:    fmt.Sprintf("spare-%d-%d", seed, i),
				Workflows: map[string]*catalog.Entry{b.Workflow: {Bundle: b}},
			}
		}
	}
	for k, f := range files {
		if err := f.Validate(); err != nil {
			return nil, err
		}
		if d.catalogs[k], err = json.Marshal(f); err != nil {
			return nil, fmt.Errorf("marshal catalog: %w", err)
		}
	}
	d.calls = decideSequence(rng, tenants)
	end()

	end = l.begin("catalog.parse")
	f, err := catalog.Parse(d.catalogs[0])
	end()
	if err != nil {
		return nil, err
	}
	d.srv = httpapi.NewServer(
		adapter.WithMissThreshold(adapter.DefaultMissThreshold),
		adapter.WithRegenerateCallback(func(float64) { d.notified.Add(1) }),
	)
	end = l.begin("catalog.load")
	_, _, err = d.srv.Registry().Load(f)
	end()
	if err != nil {
		return nil, fmt.Errorf("boot catalog load: %w", err)
	}
	end = l.begin("httpapi.listen")
	defer end()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.server = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.server.Serve(ln) }()
	return d, nil
}

// close stops the server and waits for its Serve goroutine.
func (d *daemonSetup) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.server.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// decideSequence draws the seeded decide stream: a Zipf-chosen tenant,
// one of its workflows, a decision group, a resolved-shape key where the
// bundle has variants, and a remaining budget drawn across and below the
// table's coverage, so both hits and escalations occur.
func decideSequence(rng *rand.Rand, tenants []*catalog.Tenant) []decideCall {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(tenants)-1))
	calls := make([]decideCall, decidesPerPass)
	for i := range calls {
		t := tenants[zipf.Uint64()]
		names := make([]string, 0, len(t.Workflows))
		for n := range t.Workflows {
			names = append(names, n)
		}
		sort.Strings(names)
		wf := names[rng.Intn(len(names))]
		b := t.Workflows[wf].Bundle
		group := rng.Intn(b.Stages())
		shape := ""
		if variants := b.Shaped[group]; len(variants) > 0 {
			keys := []string{""}
			for k := range variants {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			shape = keys[rng.Intn(len(keys))]
		}
		tab := b.Tables[group]
		if st, ok := b.ShapedTable(group, shape); shape != "" && ok {
			tab = st
		}
		lo, _ := tab.MinBudgetMs()
		hi, _ := tab.MaxBudgetMs()
		margin := (hi - lo) / 10
		from, to := lo-margin, hi+margin
		remaining := int64(from + rng.Intn(to-from+1))
		if remaining < 1 {
			remaining = 1
		}
		c := decideCall{key: t.APIKey, req: httpapi.DecideRequest{Workflow: wf, Suffix: group, RemainingMs: remaining, Shape: shape}}
		if r, ok := tab.Lookup(time.Duration(remaining) * time.Millisecond); ok {
			c.wantMC, c.wantHit = r.Millicores, true
		} else {
			c.wantMC = b.MaxMillicores
		}
		c.body, _ = json.Marshal(c.req) // a struct of plain fields cannot fail to encode
		calls[i] = c
	}
	return calls
}

// passResult is one decide pass: per-decide round trips, reload round
// trips, and the pass's wall time and outcome counts.
type passResult struct {
	wall    time.Duration
	rtt     []time.Duration
	reloads []time.Duration
	hits    int64
	misses  int64
	failed  int64
	mc      int64
}

// pass runs the decide sequence once over the closed loop and lands
// reloadsPerPass catalog reloads at the count marks. gen is the catalog
// the server holds when the pass starts; the returned one is the
// catalog it holds at the end.
func (d *daemonSetup) pass(gen int, out *outcome) (*passResult, int, error) {
	conns := runtime.NumCPU()
	if conns > maxConns {
		conns = maxConns
	}
	res := &passResult{rtt: make([]time.Duration, len(d.calls))}
	every := int64(len(d.calls) / reloadsPerPass)
	marks := make(chan struct{}, reloadsPerPass) // one slot per mark: workers never block on it
	var (
		next     atomic.Int64
		mu       sync.Mutex
		problems []string
		wg       sync.WaitGroup
	)
	report := func(format string, args ...any) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var reloadErr error
	reloaderDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(reloaderDone)
		client := newClient()
		defer client.CloseIdleConnections()
		for range marks {
			gen = 1 - gen
			// Collect first, so the process's resident high-water mark
			// measures the reload's own allocation spike rather than how
			// much garbage the collector happened to defer.
			runtime.GC()
			t0 := time.Now()
			if err := d.reload(client, d.catalogs[gen]); err != nil {
				reloadErr = err
				continue
			}
			res.reloads = append(res.reloads, time.Since(t0))
		}
	}()
	var hits, misses, failed, mc atomic.Int64
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(d.calls)) {
					return
				}
				if i%every == every/2 {
					marks <- struct{}{}
				}
				c := &d.calls[i]
				t0 := time.Now()
				got, err := d.decide(client, c)
				res.rtt[i] = time.Since(t0)
				switch {
				case err != nil:
					failed.Add(1)
					report("decide %d: %v", i, err)
				case got.Millicores != c.wantMC || got.Hit != c.wantHit:
					failed.Add(1)
					report("decide %d (%s %s group %d shape %q %dms): got %d mc hit=%v, bundle says %d mc hit=%v",
						i, c.key, c.req.Workflow, c.req.Suffix, c.req.Shape, c.req.RemainingMs, got.Millicores, got.Hit, c.wantMC, c.wantHit)
				default:
					mc.Add(int64(got.Millicores))
					if got.Hit {
						hits.Add(1)
					} else {
						misses.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(marks)
	<-reloaderDone
	res.wall = time.Since(start)
	res.hits, res.misses, res.failed, res.mc = hits.Load(), misses.Load(), failed.Load(), mc.Load()
	for i, p := range problems {
		if i == 5 {
			out.fail("%d more decide failures", len(problems)-5)
			break
		}
		out.fail("%s", p)
	}
	if reloadErr != nil {
		return nil, gen, fmt.Errorf("catalog reload: %w", reloadErr)
	}
	if len(res.reloads) != reloadsPerPass {
		return nil, gen, fmt.Errorf("%d reloads landed, want %d", len(res.reloads), reloadsPerPass)
	}
	return res, gen, nil
}

// newClient returns a client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// decide sends one decide and reads the full body.
func (d *daemonSetup) decide(client *http.Client, c *decideCall) (httpapi.DecideResponse, error) {
	var got httpapi.DecideResponse
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/decide", bytes.NewReader(c.body))
	if err != nil {
		return got, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+c.key)
	resp, err := client.Do(req)
	if err != nil {
		return got, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return got, err
	}
	if resp.StatusCode != http.StatusOK {
		return got, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return got, json.Unmarshal(body, &got)
}

// reload pushes one catalog body with PUT /v1/catalog.
func (d *daemonSetup) reload(client *http.Client, body []byte) error {
	req, err := http.NewRequest(http.MethodPut, d.url+"/v1/catalog", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+d.adminKey)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var rr httpapi.ReloadResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return err
	}
	if rr.Tenants != daemonTenants+spareTenants {
		return fmt.Errorf("reload installed %d tenants, want %d", rr.Tenants, daemonTenants+spareTenants)
	}
	return nil
}

// scrape reads /v1/prometheus and sums the decision counter by outcome
// and the request counter by status.
func (d *daemonSetup) scrape() (outcomes, statuses map[string]float64, err error) {
	req, err := http.NewRequest(http.MethodGet, d.url+"/v1/prometheus", nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+d.adminKey)
	client := newClient()
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("scrape status %d", resp.StatusCode)
	}
	outcomes, statuses = map[string]float64{}, map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		var into map[string]float64
		var label string
		switch {
		case strings.HasPrefix(line, "janusd_decisions_total{"):
			into, label = outcomes, "outcome"
		case strings.HasPrefix(line, "janusd_http_requests_total{"):
			into, label = statuses, "status"
		default:
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("scrape line %q: %w", line, err)
		}
		into[labelValue(line[:sp], label)] += v
	}
	return outcomes, statuses, nil
}

// labelValue extracts one label's value from a Prometheus series name.
func labelValue(series, label string) string {
	i := strings.Index(series, label+`="`)
	if i < 0 {
		return ""
	}
	rest := series[i+len(label)+2:]
	return rest[:strings.IndexByte(rest, '"')]
}

// measureDaemon is the daemon's untraced run: set up setupReps times,
// then run decide passes until the budget is spent, and finally check
// the server's own counters against the load generator's.
func measureDaemon(seed uint64, start time.Time, budget time.Duration) (*outcome, error) {
	out := &outcome{metrics: metricSet{}, report: metricSet{}}
	var d *daemonSetup
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			d = nil
		}
		runtime.GC()
		t0 := time.Now()
		if i == 0 {
			t0 = start // the first set-up also pays process start-up
		}
		var err error
		if d, err = setupDaemon(seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var (
		walls, rps []float64
		peaks      []float64
		rtt        []float64
		reloads    []float64
		hits, miss int64
		mc         int64
		passes     int
		gen        int
	)
	deadline := time.Now().Add(budget)
	for passes < minServePasses || time.Now().Before(deadline) {
		if err := startPass(); err != nil {
			return nil, err
		}
		res, g, err := d.pass(gen, out)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		gen = g
		passes++
		walls, peaks = append(walls, res.wall.Seconds()), append(peaks, rss)
		rps = append(rps, float64(len(d.calls))/res.wall.Seconds())
		for _, r := range res.rtt {
			rtt = append(rtt, float64(r)/float64(time.Millisecond))
		}
		for _, r := range res.reloads {
			reloads = append(reloads, float64(r)/float64(time.Millisecond))
		}
		out.attempted += int64(len(d.calls))
		out.failed += res.failed
		hits, miss, mc = hits+res.hits, miss+res.misses, mc+res.mc
	}
	d.checkCounters(out, int64(passes)*int64(len(d.calls)), hits, miss, len(reloads))
	if err := d.close(); err != nil {
		return nil, err
	}
	sort.Float64s(rtt)
	out.metrics.set("setup_s", median(setups), "s")
	out.metrics.set("serve_s", median(walls), "s")
	out.metrics.set("peak_rss_mb", median(peaks), "MB")
	out.metrics.set("mean_millicores", float64(mc)/float64(hits+miss), "mc")
	out.metrics.set("hit_frac", frac(hits, hits+miss), "frac")
	out.report.set("decide_rps", median(rps), "1/s")
	out.report.set("decide_p50_ms", percentile(rtt, 50), "ms")
	out.report.set("decide_p99_ms", percentile(rtt, 99), "ms")
	out.report.set("reload_ms", median(reloads), "ms")
	out.report.set("serve_passes", float64(passes), "count")
	out.report.set("reloads", float64(len(reloads)), "count")
	out.report.set("regen_notifications", float64(d.notified.Load()), "count")
	out.report.set("catalog.mb", float64(len(d.catalogs[0]))/(1<<20), "MB")
	return out, nil
}

// checkCounters compares the server's Prometheus counters with the load
// generator's own counts: every decide an answered 200 with the expected
// outcome, every reload a 200, nothing else.
func (d *daemonSetup) checkCounters(out *outcome, decides, hits, misses int64, reloads int) {
	outcomes, statuses, err := d.scrape()
	if err != nil {
		out.fail("scrape /v1/prometheus: %v", err)
		return
	}
	if outcomes["hit"] != float64(hits) || outcomes["miss"] != float64(misses) {
		out.fail("janusd_decisions_total hit=%v miss=%v, load generator saw hit=%d miss=%d", outcomes["hit"], outcomes["miss"], hits, misses)
	}
	for o, v := range outcomes {
		if o != "hit" && o != "miss" && v != 0 {
			out.fail("janusd_decisions_total{outcome=%q} = %v, want 0", o, v)
		}
	}
	if want := float64(decides) + float64(reloads); statuses["200"] != want {
		out.fail("janusd_http_requests_total{status=\"200\"} = %v, want %v decides and reloads", statuses["200"], want)
	}
	for s, v := range statuses {
		if s != "200" && v != 0 {
			out.fail("janusd_http_requests_total{status=%q} = %v, want 0", s, v)
		}
	}
}

// traceDaemon is the daemon's traced run: one timed set-up, one decide
// pass over the socket, then the decide sequence replayed stage by stage
// in memory — Registry.Authenticate, RuntimeTenant.Admit,
// RuntimeTenant.Adapter, Adapter.DecideShaped, and the whole handler on
// a recorder — plus catalog.Parse and Registry.Load on the reload bodies.
func traceDaemon(seed uint64, start time.Time) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	m := out.metrics
	l := newLedger()
	l.origin = start
	d, err := setupDaemon(seed, l)
	if err != nil {
		return nil, err
	}
	n := int64(len(d.calls))
	runtime.GC()
	before := sampleRuntime()
	end := l.begin("httpapi.decide_pass")
	res, _, err := d.pass(0, out)
	end()
	if err != nil {
		return nil, err
	}
	after := sampleRuntime()
	recordRuntime(m, before, after, n)
	if err := d.close(); err != nil {
		return nil, err
	}
	out.attempted, out.failed = n, res.failed
	rtt := make([]float64, len(res.rtt))
	for i, r := range res.rtt {
		rtt[i] = float64(r) / float64(time.Microsecond)
	}
	sort.Float64s(rtt)
	reloads := make([]float64, len(res.reloads))
	for i, r := range res.reloads {
		reloads[i] = float64(r) / float64(time.Millisecond)
	}
	m.set("decide_rps", float64(n)/res.wall.Seconds(), "1/s")
	m.set("decide_p50_ms", percentile(rtt, 50)/1000, "ms")
	m.set("decide_p99_ms", percentile(rtt, 99)/1000, "ms")
	m.set("reload_ms", median(reloads), "ms")

	reg := d.srv.Registry()
	rts := make([]*catalog.RuntimeTenant, n)
	end = l.begin("catalog.authenticate")
	t0 := time.Now()
	for i := range d.calls {
		rts[i], _ = reg.Authenticate(d.calls[i].key)
	}
	m.set("catalog.auth_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	end()
	for i, rt := range rts {
		if rt == nil {
			out.fail("decide %d: key %s does not authenticate", i, d.calls[i].key)
			return out, nil
		}
	}
	end = l.begin("catalog.admit")
	t0 = time.Now()
	for _, rt := range rts {
		if ok, _ := rt.Admit(time.Now()); !ok {
			out.fail("tenant %s refused by a quota that must not bind", rt.Name())
		}
	}
	m.set("catalog.admit_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	end()
	ads := make([]*adapter.Adapter, n)
	end = l.begin("catalog.lookup")
	t0 = time.Now()
	for i, rt := range rts {
		ads[i], _ = rt.Adapter(d.calls[i].req.Workflow)
	}
	m.set("catalog.lookup_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	end()
	var hits int64
	end = l.begin("adapter.decide")
	t0 = time.Now()
	for i, a := range ads {
		c := &d.calls[i]
		dec, err := a.DecideShaped(c.req.Suffix, c.req.Shape, time.Duration(c.req.RemainingMs)*time.Millisecond)
		if err != nil || dec.Millicores != c.wantMC || dec.Hit != c.wantHit {
			out.failed++
			out.fail("decide %d in memory: got %+v (%v), bundle says %d mc hit=%v", i, dec, err, c.wantMC, c.wantHit)
			continue
		}
		if dec.Hit {
			hits++
		}
	}
	adapterWall := time.Since(t0)
	end()
	m.set("adapter.decisions", float64(n), "count")
	m.set("adapter.s", adapterWall.Seconds(), "s")
	m.set("adapter.hit_frac", frac(hits, n), "frac")

	handler := d.srv.Handler()
	handlerUs := make([]float64, n)
	end = l.begin("httpapi.handler")
	for i := range d.calls {
		c := &d.calls[i]
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(c.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Authorization", "Bearer "+c.key)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		handlerUs[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		if rec.Code != http.StatusOK {
			out.fail("decide %d in memory: status %d", i, rec.Code)
		}
	}
	end()
	sort.Float64s(handlerUs)
	m.set("httpapi.handler_us", percentile(handlerUs, 50), "us")
	m.set("httpapi.socket_us", percentile(rtt, 50)-percentile(handlerUs, 50), "us")

	var parse, load []float64
	fresh := catalog.NewRegistry()
	for k := 0; k < 4; k++ {
		body := d.catalogs[k%2]
		end = l.begin("catalog.parse")
		t0 := time.Now()
		f, err := catalog.Parse(body)
		parse = append(parse, float64(time.Since(t0))/float64(time.Millisecond))
		end()
		if err != nil {
			return nil, err
		}
		end = l.begin("catalog.load")
		t0 = time.Now()
		_, _, err = fresh.Load(f)
		load = append(load, float64(time.Since(t0))/float64(time.Millisecond))
		end()
		if err != nil {
			return nil, err
		}
	}
	m.set("catalog.mb", float64(len(d.catalogs[0]))/(1<<20), "MB")
	m.set("catalog.parse_ms", median(parse), "ms")
	m.set("catalog.load_ms", median(load), "ms")

	np, dp := l.sum("profile", "")
	m.set("profile.calls", float64(np), "count")
	m.set("profile.s", dp, "s")
	ns, ds := l.sum("synth", "")
	m.set("synth.calls", float64(ns), "count")
	m.set("synth.s", ds, "s")
	m.set("synth.hints", float64(l.rawHints), "count")
	l.unattributed(m, time.Since(start))
	if err := l.writeSpans(os.Stderr); err != nil {
		return nil, err
	}
	return out, nil
}
