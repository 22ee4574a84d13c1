package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/stats"
)

// Workload shapes. Each run issues the same seeded sequence in the
// same order, cycling through a fixed deck so that the inputs, and the
// benchmark's own memory, do not depend on how fast the run goes.
const (
	missDeck     = 16384 // single queries of query-miss
	hotPool      = 512   // distinct queries query-hot draws from
	hotZipfS     = 1.1   // rank skew of query-hot's draws
	hotBatch     = 32    // queries per query-hot batch
	hotDeck      = 1024  // batches of query-hot
	churnDeck    = 4096  // router reads of churn-replicated
	readsPerTurn = 32    // router reads after each churn cycle
	turnsPerTick = 4     // churn cycles between maintenance periods
	probeTurns   = 32    // churn cycles the query workloads run after their load
	probeTick    = 2     // churn cycles between the probe's maintenance periods
	settleTurns  = 32    // period-free churn cycles that end a churn-replicated run
	catchups     = 5     // fresh follower+router catch-ups per run
	warmup       = time.Second
)

// query is one deck entry: its terms, its pre-rendered request body
// and the hash of the first answer it got (0 until asked).
type query struct {
	terms []string
	body  []byte
	hash  uint64
}

func makeDeck(pop *population, rng *stats.RNG, n int) []query {
	deck := make([]query, n)
	for i := range deck {
		terms := pop.drawQuery(rng)
		body, _ := json.Marshal(map[string][]string{"terms": terms})
		deck[i] = query{terms: terms, body: body}
	}
	return deck
}

// batch is one query-hot deck entry: indexes into the query pool.
type batch struct {
	idx  []int
	body []byte
	hash uint64
}

func hash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64() | 1 // never 0, which marks "not asked yet"
}

// remember records an answer's hash against a deck entry and reports
// whether it agrees with every earlier answer to the same entry.
func remember(slot *uint64, body []byte) bool {
	h := hash(body)
	if *slot == 0 {
		*slot = h
	}
	return *slot == h
}

// run is one benchmark run of one workload.
type run struct {
	name    string
	seed    uint64
	seconds time.Duration
	ops     *ops
	m       metricSet
	sys     *system
	rng     *stats.RNG
	// problems lists failed checks; any makes the run incorrect.
	problems []string

	// query-phase request latencies.
	qlat samples
	// mutation-phase samples.
	mut, vis, per samples
	// scosts of the maintenance periods run during the load.
	scosts []float64
	// spans, when set, records every load request as a span.
	spans *tracer
	req   int
}

// timed runs fn, as a root span of its own request when the run is
// traced, and returns its duration.
func (r *run) timed(name string, fn func()) time.Duration {
	if r.spans == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	r.req++
	return r.spans.call(name, 0, r.req, fn)
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// post sends one data-plane request and returns its body.
func post(c *client, url string, body []byte) ([]byte, error) {
	return c.want(http.StatusOK, http.MethodPost, url, body)
}

// loop runs step until the deadline: a warm-up second first, whose
// samples are dropped, then the measured window. It reports the share
// of the machine's CPU time the host took during the window, which
// explains a run slower than its neighbours.
func (r *run) loop(step func(measure bool) error) error {
	for _, phase := range []struct {
		d       time.Duration
		measure bool
	}{{warmup, false}, {r.seconds, true}} {
		s0, t0, ok0 := hostSteal()
		end := time.Now().Add(phase.d)
		for time.Now().Before(end) {
			if err := step(phase.measure); err != nil {
				return err
			}
		}
		if s1, t1, ok1 := hostSteal(); phase.measure && ok0 && ok1 && t1 > t0 {
			fmt.Fprintf(os.Stderr, "%s: the host took %.1f%% of this machine's CPU time during the measured window\n",
				r.name, 100*float64(s1-s0)/float64(t1-t0))
		}
	}
	return nil
}

// queryMiss posts single queries drawn uniformly over the corpus
// documents.
func (r *run) queryMiss(deck []query) error {
	url := r.sys.leader.n.url + "/v1/query"
	i := 0
	return r.loop(func(measure bool) error {
		q := &deck[i%len(deck)]
		i++
		var out []byte
		var err error
		d := r.timed("load.query", func() { out, err = post(r.sys.lc, url, q.body) })
		if r.ops.record("query", err) != nil {
			return nil
		}
		if !remember(&q.hash, out) {
			r.problem("query %q answered differently on a fixed view", q.terms)
		}
		if measure {
			r.qlat.add(d)
		}
		return nil
	})
}

// hotDecks draws query-hot's pool and its batches.
func hotDecks(pop *population, rng *stats.RNG) ([]query, []batch) {
	pool := makeDeck(pop, rng.Split(), hotPool)
	z := stats.NewZipf(hotPool, hotZipfS)
	brng := rng.Split()
	deck := make([]batch, hotDeck)
	for i := range deck {
		req := struct {
			Queries []map[string][]string `json:"queries"`
		}{}
		for k := 0; k < hotBatch; k++ {
			j := z.Sample(brng)
			deck[i].idx = append(deck[i].idx, j)
			req.Queries = append(req.Queries, map[string][]string{"terms": pool[j].terms})
		}
		deck[i].body, _ = json.Marshal(req)
	}
	return pool, deck
}

// dupShare is the share of batch elements that repeat an earlier
// element of the same batch.
func dupShare(deck []batch) float64 {
	dups, all := 0, 0
	for _, b := range deck {
		seen := map[int]bool{}
		for _, j := range b.idx {
			if seen[j] {
				dups++
			}
			seen[j] = true
			all++
		}
	}
	return float64(dups) / float64(all)
}

// queryHot posts batches of hot queries.
func (r *run) queryHot(deck []batch) error {
	url := r.sys.leader.n.url + "/v1/query/batch"
	i := 0
	return r.loop(func(measure bool) error {
		b := &deck[i%len(deck)]
		i++
		var out []byte
		var err error
		d := r.timed("load.batch", func() { out, err = post(r.sys.lc, url, b.body) })
		if r.ops.record("batch", err) != nil {
			return nil
		}
		if !remember(&b.hash, out) {
			r.problem("batch %d answered differently on a fixed view", i%len(deck))
		}
		if measure {
			r.qlat.add(d)
		}
		return nil
	})
}

// churner picks the peers churn cycles retire and rejoin.
type churner struct {
	rng   *stats.RNG
	slots []int
	turn  int
}

func newChurner(s *system, rng *stats.RNG) *churner {
	ch := &churner{rng: rng}
	for slot := range s.own {
		ch.slots = append(ch.slots, slot)
	}
	slices.Sort(ch.slots)
	return ch
}

// cycle retires one seeded live peer, rejoins it, and waits until the
// follower and the router have both applied the rejoin. Every tick-th
// cycle ends with a maintenance period (tick 0: never). measure
// decides whether the timings count. After each acknowledgement the
// leader's position is read from /v1/stats, outside the mutation's
// own timing; the visibility time, from the rejoin's request to the
// replicas' catch-up, includes that one read (~0.1 ms).
func (r *run) cycle(ch *churner, tick int, measure bool) error {
	s := r.sys
	k := ch.rng.Intn(len(ch.slots))
	slot := ch.slots[k]
	peer := s.own[slot]
	var err error
	d := r.timed("load.leave", func() { err = s.leave(slot) })
	if r.ops.record("leave", err) != nil {
		return err
	}
	if err := s.refresh(); err != nil {
		return err
	}
	var newSlot int
	t0 := time.Now()
	dj := r.timed("load.join", func() { newSlot, err = s.join(peer) })
	if r.ops.record("join", err) != nil {
		return err
	}
	ch.slots[k] = newSlot
	if err := s.refresh(); err != nil {
		return err
	}
	r.timed("load.visible", func() { err = s.sync() })
	dv := time.Since(t0)
	if err != nil {
		return err
	}
	if measure {
		r.vis.add(dv)
		r.mut.add(d)
		r.mut.add(dj)
	}
	ch.turn++
	if tick == 0 || ch.turn%tick != 0 {
		return nil
	}
	var rep reformReply
	var dp time.Duration
	r.timed("load.period", func() { rep, dp, err = s.period(r.ops) })
	if err != nil {
		return err
	}
	if measure {
		r.per.add(dp)
		r.scosts = append(r.scosts, rep.SCost)
	}
	// The wait for the replicas after a period is not timed.
	if err := s.refresh(); err != nil {
		return err
	}
	return s.sync()
}

// churnReplicated repeats churn cycles, each followed by reads against
// the router. Read answers are checked as they arrive against the
// corpus totals (corpusTotals).
func (r *run) churnReplicated(deck []query, totals []int) error {
	ch := newChurner(r.sys, r.rng.Split())
	qi := 0
	return r.loop(func(measure bool) error {
		if err := r.cycle(ch, turnsPerTick, measure); err != nil {
			return err
		}
		for k := 0; k < readsPerTurn; k++ {
			j := qi % len(deck)
			qi++
			if d, ok := r.routerRead(deck, totals, j); ok && measure {
				r.qlat.add(d)
			}
		}
		return nil
	})
}

// routerRead sends deck query j to the router and checks its answer
// against the corpus totals; ok is false when the request failed.
func (r *run) routerRead(deck []query, totals []int, j int) (time.Duration, bool) {
	url := r.sys.router.n.url + "/v1/query"
	var out []byte
	var err error
	d := r.timed("load.query", func() { out, err = post(r.sys.rc, url, deck[j].body) })
	if r.ops.record("query", err) != nil {
		return 0, false
	}
	var a answer
	if err := json.Unmarshal(out, &a); err != nil {
		r.problem("router answer for %q: %v", deck[j].terms, err)
	} else if msg := consistent(a, totals[j]); msg != "" {
		r.problem("router answer for %q: %s", deck[j].terms, msg)
	}
	return d, true
}

// consistent checks what an answer must satisfy whatever the cluster
// assignment: the total is the corpus-wide result count, the cluster
// results sum to it, and each recall is its cluster's share.
func consistent(a answer, total int) string {
	if a.Total != total {
		return fmt.Sprintf("total %d, corpus holds %d", a.Total, total)
	}
	sum := 0
	for _, h := range a.Clusters {
		sum += h.Results
		if h.Size <= 0 || h.Results <= 0 || h.Recall != float64(h.Results)/float64(a.Total) {
			return fmt.Sprintf("bad cluster hit %+v", h)
		}
	}
	if sum != total {
		return fmt.Sprintf("cluster results sum to %d, total %d", sum, total)
	}
	return ""
}

// probe runs a fixed number of churn cycles so the query workloads
// also measure the mutation path, on their own population.
func (r *run) probe() error {
	ch := newChurner(r.sys, r.rng.Split())
	for i := 0; i < probeTurns; i++ {
		if err := r.cycle(ch, probeTick, true); err != nil {
			return err
		}
	}
	return nil
}

// settle ends a churn-replicated run so that the live heap measured
// next does not depend on how many cycles the timed load managed. The
// same period-free churn cycles leave the daemons' rings of recent
// views alike. Then one untimed pass of the whole read deck against
// the router rewrites each deck query's route-cache slot with an
// answer on the final view: an entry pins the view it was computed
// on, so otherwise every view the load read would stay live.
func (r *run) settle(deck []query, totals []int) error {
	ch := newChurner(r.sys, r.rng.Split())
	for i := 0; i < settleTurns; i++ {
		if err := r.cycle(ch, 0, false); err != nil {
			return err
		}
	}
	for j := range deck {
		r.routerRead(deck, totals, j)
	}
	return nil
}

// catchUp times a fresh follower and a fresh router until both hold
// the leader's current state, several times.
func (r *run) catchUp() (samples, error) {
	s := r.sys
	if err := s.refresh(); err != nil {
		return nil, err
	}
	var out samples
	c := newClient()
	defer c.close()
	for i := 0; i < catchups; i++ {
		d, err := catchUpOnce(c, s)
		if r.ops.record("catchup", err) != nil {
			return nil, err
		}
		out.add(d)
	}
	return out, nil
}

func catchUpOnce(c *client, s *system) (time.Duration, error) {
	t0 := time.Now()
	fl, err := startDaemon([]string{s.leader.n.url})
	if err != nil {
		return 0, err
	}
	defer fl.stop()
	rt, err := startRouter(s.leader.n.url)
	if err != nil {
		return 0, err
	}
	defer rt.stop()
	if !rt.rt.WaitSynced(s.seq, waitLimit) {
		return 0, fmt.Errorf("fresh router stuck at seq %d, leader at %d", rt.rt.Seq(), s.seq)
	}
	if err := awaitInstalled(c, fl.n.url, s.popVer); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
