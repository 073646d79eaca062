package memo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func bg() context.Context { return context.Background() }

// byteCost charges each string value its length, ignoring the key.
func byteCost(_ string, v string) int64 { return int64(len(v)) }

// Get returns the resident value for key without computing, touching the
// LRU on hit: how these tests probe residency.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.done[key]
	if !ok {
		return v, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

func TestDoComputesOnceThenHits(t *testing.T) {
	c := New[string](0, nil)
	calls := 0
	fn := func() (string, error) { calls++; return "v", nil }
	v, err, shared := c.Do(bg(), "k", fn)
	if v != "v" || err != nil || shared {
		t.Fatalf("first Do = %q, %v, shared=%v", v, err, shared)
	}
	v, err, shared = c.Do(bg(), "k", fn)
	if v != "v" || err != nil || !shared {
		t.Fatalf("second Do = %q, %v, shared=%v", v, err, shared)
	}
	if calls != 1 {
		t.Fatalf("computed %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Joined != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 joined", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New[string](0, nil)
	calls := 0
	fail := errors.New("boom")
	fn := func() (string, error) {
		calls++
		if calls == 1 {
			return "", fail
		}
		return "ok", nil
	}
	if _, err, _ := c.Do(bg(), "k", fn); !errors.Is(err, fail) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
	v, err, shared := c.Do(bg(), "k", fn)
	if v != "ok" || err != nil || shared {
		t.Fatalf("retry Do = %q, %v, shared=%v — error poisoned the cache", v, err, shared)
	}
}

// Concurrent requesters of one key must run the function exactly once and
// all share its result; later arrivals count as joined.
func TestSingleflightJoin(t *testing.T) {
	c := New[string](0, nil)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (string, error) {
		calls.Add(1)
		close(started)
		<-release
		return "v", nil
	}
	var wg sync.WaitGroup
	first := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(first)
		if v, err, _ := c.Do(bg(), "k", fn); v != "v" || err != nil {
			t.Errorf("leader Do = %q, %v", v, err)
		}
	}()
	<-first
	<-started // the leader is inside fn; everyone else must join
	const waiters = 8
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := c.Do(bg(), "k", func() (string, error) {
				t.Error("duplicate computation ran")
				return "", nil
			})
			if v != "v" || err != nil || !shared {
				t.Errorf("waiter Do = %q, %v, shared=%v", v, err, shared)
			}
		}()
	}
	// Give the waiters a moment to attach, then release the leader.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if st := c.Stats(); st.Joined != waiters {
		t.Fatalf("joined = %d, want %d", st.Joined, waiters)
	}
}

// A waiter whose context is canceled stops waiting with ctx.Err() while
// the in-flight computation finishes for everyone else.
func TestWaiterCancellation(t *testing.T) {
	c := New[string](0, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(bg(), "k", func() (string, error) {
		close(started)
		<-release
		return "v", nil
	})
	<-started
	ctx, cancel := context.WithCancel(bg())
	errc := make(chan error, 1)
	go func() {
		_, err, _ := c.Do(ctx, "k", nil) // fn unused: must join in flight
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter did not return")
	}
	close(release)
	// The computation still completed and is cached.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := c.Get("k"); ok {
			if v != "v" {
				t.Fatalf("cached %q, want v", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader result never cached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLRUEvictionOrderAndBudget(t *testing.T) {
	// Budget 10 bytes, 4-byte values: holds 2 entries.
	c := New[string](10, byteCost)
	put := func(k string) {
		c.Do(bg(), k, func() (string, error) { return "xxxx", nil })
	}
	put("a")
	put("b")
	c.Do(bg(), "a", nil) // touch a: now b is least recent
	put("c")             // 12 bytes > 10: evict b
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived")
	}
	st := c.Stats()
	if st.Bytes > 10 || st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want ≤10 bytes, 2 entries, 1 eviction", st)
	}
}

// One oversized insert trims several entries at once, counting each as
// one eviction and leaving none of them resident.
func TestOneInsertTrimsSeveralEntries(t *testing.T) {
	// 10-byte budget, 3-byte values: holds 3 entries.
	c := New[string](10, byteCost)
	put := func(k, v string) {
		c.Do(bg(), k, func() (string, error) { return v, nil })
	}
	put("a", "xxx")
	put("b", "xxx")
	put("c", "xxx")
	// A single insert over budget trims a, b, and c in one Do call
	// (never-evict-newest keeps "big" itself).
	put("big", strings.Repeat("y", 9))
	if st := c.Stats(); st.Evictions != 3 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 3 evictions / 1 entry", st)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("trimmed entry %q still resident", k)
		}
	}
}

// Joined counts only successful shares: a waiter that receives the
// leader's error, or cancels out of the join, must not inflate it —
// otherwise Hits+Joined over-reports the shared results callers count.
func TestJoinedCountsOnlySuccessfulShares(t *testing.T) {
	c := New[string](0, nil)
	fail := errors.New("boom")

	// Waiter shares the leader's error: shared=true, not joined.
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(bg(), "err", func() (string, error) {
		close(started)
		<-release
		return "", fail
	})
	<-started
	errc := make(chan error, 1)
	sharedc := make(chan bool, 1)
	go func() {
		_, err, shared := c.Do(bg(), "err", nil)
		errc <- err
		sharedc <- shared
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter attach
	close(release)
	if err := <-errc; !errors.Is(err, fail) {
		t.Fatalf("waiter err = %v, want boom", err)
	}
	if !<-sharedc {
		t.Fatal("errored join not reported shared")
	}
	if st := c.Stats(); st.Joined != 0 {
		t.Fatalf("errored share counted as joined: %+v", st)
	}

	// Waiter cancels out of the join: not joined either.
	started2 := make(chan struct{})
	release2 := make(chan struct{})
	leader2 := make(chan struct{})
	go func() {
		c.Do(bg(), "slow", func() (string, error) {
			close(started2)
			<-release2
			return "v", nil
		})
		close(leader2)
	}()
	<-started2
	ctx, cancel := context.WithCancel(bg())
	go func() {
		_, err, _ := c.Do(ctx, "slow", nil)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v", err)
	}
	close(release2)
	<-leader2

	// A successful join still counts.
	started3 := make(chan struct{})
	release3 := make(chan struct{})
	go c.Do(bg(), "ok", func() (string, error) {
		close(started3)
		<-release3
		return "v", nil
	})
	<-started3
	vc := make(chan string, 1)
	go func() {
		v, _, _ := c.Do(bg(), "ok", nil)
		vc <- v
	}()
	time.Sleep(5 * time.Millisecond)
	close(release3)
	if v := <-vc; v != "v" {
		t.Fatalf("successful join = %q", v)
	}
	if st := c.Stats(); st.Joined != 1 {
		t.Fatalf("joined = %d, want exactly the one successful share", st.Joined)
	}
}

// An entry bigger than the whole budget is still cached (alone): the most
// recent entry is never evicted, so singleflight keeps deduplicating hot
// oversized results instead of thrashing.
func TestOversizedEntryCachedAlone(t *testing.T) {
	c := New[string](4, byteCost)
	c.Do(bg(), "small", func() (string, error) { return "xx", nil })
	big := strings.Repeat("y", 100)
	c.Do(bg(), "big", func() (string, error) { return big, nil })
	if _, ok := c.Get("big"); !ok {
		t.Fatal("oversized entry not retained")
	}
	if _, ok := c.Get("small"); ok {
		t.Fatal("older entry survived an over-budget insert")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// The budget bounds the resident set under a long stream of distinct keys
// — the regression the Runner's unbounded map had.
func TestBudgetBoundedUnderChurn(t *testing.T) {
	const budget = 1 << 10
	c := New[string](budget, byteCost)
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%d", i)
		c.Do(bg(), k, func() (string, error) { return strings.Repeat("v", 64), nil })
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("resident bytes %d exceed budget %d at insert %d", st.Bytes, budget, i)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("churn caused no evictions")
	}
	if st.Entries >= 2000 {
		t.Fatal("every key retained: cache is unbounded")
	}
}

func TestPanicDoesNotStrandWaiters(t *testing.T) {
	c := New[string](0, nil)
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer func() { recover() }() // the leader re-raises
		c.Do(bg(), "k", func() (string, error) {
			close(started)
			time.Sleep(10 * time.Millisecond)
			panic("injected")
		})
	}()
	<-started
	go func() {
		_, err, _ := c.Do(bg(), "k", nil)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter err = %v, want panic-converted error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stranded after leader panic")
	}
	// The key is not stuck in flight: a retry computes fresh.
	v, err, _ := c.Do(bg(), "k", func() (string, error) { return "ok", nil })
	if v != "ok" || err != nil {
		t.Fatalf("retry after panic = %q, %v", v, err)
	}
}

// Hammer one hot key plus a churning tail from many goroutines; meant for
// -race. Every response for the hot key must be the canonical value.
func TestConcurrentChurn(t *testing.T) {
	c := New[string](512, byteCost)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%3 == 0 {
					v, err, _ := c.Do(bg(), "hot", func() (string, error) { return "HOT", nil })
					if err != nil || v != "HOT" {
						t.Errorf("hot key = %q, %v", v, err)
						return
					}
				} else {
					k := fmt.Sprintf("cold-%d-%d", g, i)
					c.Do(bg(), k, func() (string, error) { return strings.Repeat("c", 32), nil })
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 512 {
		t.Fatalf("resident bytes %d exceed budget", st.Bytes)
	}
}
