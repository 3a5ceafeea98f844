package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// request is one query of the serving mix.
type request struct {
	recommend  bool
	user, item int
}

// mixRequest returns request i of the seeded 50/50 /predict and
// /recommend?n=10 mix over users [0, users) and items [0, items).
func mixRequest(seed uint64, i int64, users, items int) request {
	s := rng.NewKeyed(seed, 0x10ad, uint64(i))
	return request{recommend: s.Intn(2) == 1, user: s.Intn(users), item: s.Intn(items)}
}

func (r request) path() string {
	if r.recommend {
		return fmt.Sprintf("/recommend?user=%d&n=10", r.user)
	}
	return fmt.Sprintf("/predict?user=%d&item=%d", r.user, r.item)
}

// httpClient returns a client holding at most conns connections to one
// server, so all load comes over that many keep-alive connections.
func httpClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
			DisableCompression: true,
		},
	}
}

// get issues one GET and drains the body; ok means a 2xx answer.
func get(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode/100 == 2
}

// loadStats summarizes one load phase.
type loadStats struct {
	sent, failed, unsent int64
	elapsed              time.Duration
	lat                  []float64 // ms, sorted
	late                 []float64 // ms the generator issued after the due time, sorted
}

func (s *loadStats) rps() float64 {
	return float64(s.sent-s.failed) / s.elapsed.Seconds()
}

// closedLoop runs clients callers back to back for d.
func closedLoop(c *http.Client, base string, seed uint64, users, items, clients int, d time.Duration) *loadStats {
	st := &loadStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lat []float64
			var sent, failed int64
			for i := int64(w); time.Now().Before(stop); i += int64(clients) {
				t := time.Now()
				ok := get(c, base+mixRequest(seed, i, users, items).path())
				lat = append(lat, ms(time.Since(t)))
				sent++
				if !ok {
					failed++
				}
			}
			mu.Lock()
			st.lat = append(st.lat, lat...)
			st.sent += sent
			st.failed += failed
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	sort.Float64s(st.lat)
	return st
}

// maxLate is how far behind its due time an arrival may be issued before
// it counts as not sent (and failed).
const maxLate = time.Second

// openLoop offers rate req/s for d: arrival i is due at t0 + i/rate, is
// issued by one of conns senders as soon as it is due, and its latency is
// timed from the due time, so a stall also delays every later arrival's
// clock. An arrival no sender could issue within maxLate of its due time
// is counted as unsent. Lateness (issue minus due) is reported so a
// generator that cannot keep up is visible.
func openLoop(ctx context.Context, c *http.Client, base string, seed uint64, users, items, conns int, rate float64, d time.Duration) *loadStats {
	st := &loadStats{}
	total := int64(rate * d.Seconds())
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, late []float64
			var sent, failed, unsent int64
			for {
				i := next.Add(1) - 1
				if i >= total || ctx.Err() != nil {
					break
				}
				due := t0.Add(time.Duration(float64(i) / rate * 1e9))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				issued := time.Now()
				if issued.Sub(due) > maxLate {
					unsent++
					continue
				}
				ok := get(c, base+mixRequest(seed, i, users, items).path())
				lat = append(lat, ms(time.Since(due)))
				late = append(late, ms(issued.Sub(due)))
				sent++
				if !ok {
					failed++
				}
			}
			mu.Lock()
			st.lat = append(st.lat, lat...)
			st.late = append(st.late, late...)
			st.sent += sent
			st.failed += failed
			st.unsent += unsent
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(t0)
	sort.Float64s(st.lat)
	sort.Float64s(st.late)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of sorted values and whether at least
// ten samples lie beyond it (a percentile with fewer is not reported).
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	return sorted[i], n-1-i >= 10
}

// median of unsorted values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setPercentiles records p50 and p99 of a latency sample under
// name.suffix when enough samples lie beyond them.
func setPercentiles(r *report, sorted []float64, suffix string) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p99_ms", 0.99}} {
		if v, ok := quantile(sorted, p.q); ok {
			r.set(p.name+"."+suffix, v, "ms")
		} else {
			fmt.Printf("# %s.%s not reported: %d samples leave fewer than 10 beyond it\n", p.name, suffix, len(sorted))
		}
	}
}
