package flight

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoRunsOncePerActiveKey(t *testing.T) {
	var g Group
	var fills atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	// One owner, guaranteed to hold the key before any waiter starts.
	var wg sync.WaitGroup
	wg.Add(1)
	var ownerVal any
	var ownerErr error
	go func() {
		defer wg.Done()
		ownerVal, ownerErr = g.Do("k", func() (any, error) {
			close(started)
			<-release
			fills.Add(1)
			return "v", nil
		})
	}()
	<-started

	const waiters = 7
	results := make([]any, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = g.Do("k", func() (any, error) {
				fills.Add(1)
				return "other", nil
			})
		}()
	}
	// The owner is parked on release, so the key stays registered; wait
	// until every waiter has joined the in-flight call, then let it finish.
	for g.pendingDups("k") < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	if ownerErr != nil || ownerVal != "v" {
		t.Fatalf("owner got (%v, %v)", ownerVal, ownerErr)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil || results[i] != "v" {
			t.Fatalf("waiter %d got (%v, %v)", i, results[i], errs[i])
		}
	}
}

func TestDoDistinctKeysDoNotBlock(t *testing.T) {
	var g Group
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := g.Do(fmt.Sprintf("k%d", i), func() (any, error) { return i, nil })
			if err != nil || v != i {
				t.Errorf("key k%d got (%v, %v)", i, v, err)
			}
		}()
	}
	wg.Wait()
}

func TestDoFillsSuccessfulKeyOnce(t *testing.T) {
	var g Group
	var fills int
	for i := 0; i < 3; i++ {
		v, err := g.Do("k", func() (any, error) { fills++; return fills, nil })
		if err != nil {
			t.Fatal(err)
		}
		if v != 1 {
			t.Fatalf("call %d got %v, want the first fill's 1", i, v)
		}
	}
	if fills != 1 {
		t.Fatalf("sequential calls filled %d times, want 1", fills)
	}
}

func TestDoPropagatesError(t *testing.T) {
	var g Group
	wantErr := fmt.Errorf("boom")
	if _, err := g.Do("k", func() (any, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// A failed call is not kept: the next caller retries, and its
	// success is kept.
	var fills int
	for i := 0; i < 2; i++ {
		v, err := g.Do("k", func() (any, error) { fills++; return "v", nil })
		if err != nil || v != "v" {
			t.Fatalf("call %d after the failure got (%v, %v), want (v, nil)", i, v, err)
		}
	}
	if fills != 1 {
		t.Fatalf("calls after the failure filled %d times, want 1", fills)
	}
}
