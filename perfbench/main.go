// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload against the real daemon over loopback HTTP, in
// one process: a leader, a replication follower and a router, driven by
// a single closed-loop client on keep-alive connections. It prints
// every metric with its unit, counts attempted and failed operations,
// checks every answer against its own brute-force oracle, and prints
// one JSON result as its last line of standard output.
//
//	perfbench --workload query-miss --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it prints the per-layer metrics instead, timed from
// outside the program around calls into each layer's public functions.
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// Set-up repetitions of an untraced run (see setUpAll).
const (
	setups     = 3    // set-ups setup_s is the median of
	setupsMost = 5    // set-ups a run makes at most
	quietSteal = 0.05 // host share of the CPU time under which a set-up counts as undisturbed
)

var workloads = map[string]experiments.Scenario{
	"query-miss":       experiments.SameCategory,
	"query-hot":        experiments.SameCategory,
	"churn-replicated": experiments.DifferentCategory,
}

func main() {
	name := flag.String("workload", "", "query-miss, query-hot or churn-replicated")
	seed := flag.Uint64("seed", 1, "workload seed: drives every request sequence")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
	corrupt := flag.Bool("corrupt-oracle", false, "move one peer to another cluster in the oracle's copy; the run must then fail its checks")
	flag.Parse()
	sc, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload query-miss|query-hot|churn-replicated --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &run{
		name:    *name,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		ops:     newOps(),
		m:       metricSet{},
		rng:     stats.NewRNG(*seed),
	}
	var err error
	if *trace == 1 {
		err = r.traced(sc)
	} else {
		err = r.untraced(sc, *corrupt)
	}
	if r.sys != nil {
		r.sys.stop()
	}
	if err != nil {
		r.problem("%v", err)
	}
	attempted, failed := r.ops.totals()
	res := result{Correct: len(r.problems) == 0, Attempted: attempted, Failed: failed, Metrics: r.m}
	r.ops.report(os.Stderr)
	printMetrics(os.Stderr, r.m)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	if !res.Correct || failed > 0 {
		os.Exit(1)
	}
	fmt.Println(res.line())
}

// setUpAll sets the system up at least n and at most most times and
// keeps the last set-up. setup_s is the median time of the n set-ups
// during which the host took the least of this machine's CPU time: it
// stops early once n set-ups ran with the host taking under quietSteal.
// Each set-up starts after a forced collection, so none inherits the
// garbage of the one before.
func (r *run) setUpAll(sc experiments.Scenario, n, most int) error {
	type take struct {
		d     time.Duration
		steal float64
	}
	var got []take
	quiet := 0
	for i := 0; i < most && (i < n || quiet < n); i++ {
		if r.sys != nil {
			r.sys.stop()
			r.sys = nil
		}
		runtime.GC()
		s0, t0, ok0 := hostSteal()
		start := time.Now()
		s, err := setUp(sc, r.name != "churn-replicated", r.ops)
		d := time.Since(start)
		if err != nil {
			s.stop()
			return fmt.Errorf("setup: %w", err)
		}
		r.sys = s
		steal := 0.0
		if s1, t1, ok1 := hostSteal(); ok0 && ok1 && t1 > t0 {
			steal = float64(s1-s0) / float64(t1-t0)
		}
		if steal < quietSteal {
			quiet++
		}
		got = append(got, take{d, steal})
		fmt.Fprintf(os.Stderr, "set-up %d: %.3f s, the host took %.1f%% of the CPU time\n", i+1, d.Seconds(), 100*steal)
	}
	slices.SortStableFunc(got, func(a, b take) int { return cmp.Compare(a.steal, b.steal) })
	var d samples
	for _, t := range got[:n] {
		d.add(t.d)
	}
	r.m.set("setup_s", "s", d.median().Seconds())
	return nil
}

// untraced is a measured run: set up, drive the workload's load, then
// check everything.
func (r *run) untraced(sc experiments.Scenario, corrupt bool) error {
	if err := r.setUpAll(sc, setups, setupsMost); err != nil {
		return err
	}
	s := r.sys
	runtime.GC()
	before, err := s.lc.stats(s.leader.n.url)
	if err != nil {
		return err
	}
	var (
		deck   []query
		totals []int
		pool   []query
		bdeck  []batch
	)
	switch r.name {
	case "query-miss":
		deck = makeDeck(s.pop, r.rng.Split(), missDeck)
		err = r.queryMiss(deck)
	case "query-hot":
		pool, bdeck = hotDecks(s.pop, r.rng.Split())
		fmt.Fprintf(os.Stderr, "query-hot: %.1f%% of batch elements repeat an earlier element of their batch\n", 100*dupShare(bdeck))
		err = r.queryHot(bdeck)
	case "churn-replicated":
		deck = makeDeck(s.pop, r.rng.Split(), churnDeck)
		totals = corpusTotals(s.pop, deck)
		err = r.churnReplicated(deck, totals)
	}
	if err != nil {
		return err
	}
	after, err := s.lc.stats(s.leader.n.url)
	if err != nil {
		return err
	}
	if hits, miss := after.RouteCache.Hits-before.RouteCache.Hits, after.RouteCache.Misses-before.RouteCache.Misses; hits+miss > 0 {
		fmt.Fprintf(os.Stderr, "%s: route cache hit ratio %.3f over %d lookups\n", r.name, float64(hits)/float64(hits+miss), hits+miss)
	}
	converged := r.name != "churn-replicated"
	if !converged {
		if len(r.scosts) == 0 {
			return fmt.Errorf("the run completed no maintenance period")
		}
		if err := s.refresh(); err != nil {
			return err
		}
		if err := s.sync(); err != nil {
			return err
		}
		if err := r.settle(deck, totals); err != nil {
			return err
		}
	}
	r.m.set("query_p50_us", "us", us(r.qlat.median()))
	r.ungated(nil)
	r.m.set("heap_mb", "MB", liveHeapMB())

	x, err := r.capture(corrupt)
	if err != nil {
		return err
	}
	if converged {
		// The query load ran on this converged state.
		r.m.set("scost", "cost", x.st.SCost)
		var n int
		if bdeck != nil {
			n = r.checkBatches(x, pool, bdeck)
		} else {
			n = r.checkDeck(x, deck)
		}
		fmt.Fprintf(os.Stderr, "checked %d distinct recorded answers against the oracle\n", n)
	} else {
		var sum float64
		for _, c := range r.scosts {
			sum += c
		}
		r.m.set("scost", "cost", sum/float64(len(r.scosts)))
	}
	r.checkState(x, converged)
	if deck == nil {
		deck = pool
	}
	r.checkReplicas(x, deck)
	return nil
}

// corpusTotals is each deck query's result count over the whole
// corpus, which churn does not change: every cycle rejoins the peer it
// retired.
func corpusTotals(pop *population, deck []query) []int {
	full := newOracle(pop.allDocs(), make([]int, len(pop.peers)))
	totals := make([]int, len(deck))
	for i := range deck {
		totals[i] = full.answer(deck[i].terms).Total
	}
	return totals
}

// ungated reports the query throughput and tail and the mutation-path
// timings. They are per-layer metrics of the traced run (into m), not
// gated with a bound: on a shared host, CPU time the hypervisor takes
// moves them by more between runs of one commit than any bound a
// regression gate can use. With m nil they are printed only, for the
// samples the run took.
func (r *run) ungated(m metricSet) {
	show := m
	if show == nil {
		show = metricSet{}
	}
	perRequest := 1
	if r.name == "query-hot" {
		perRequest = hotBatch
	}
	qt, qq := r.qlat.tail()
	show.set("query_rps", "1/s", r.qlat.rate(perRequest))
	show.set("query_p99_us", "us", us(qt))
	msg := fmt.Sprintf("samples: %d requests (tail at p%.1f)", len(r.qlat), 100*qq)
	if len(r.mut) > 0 || m != nil {
		mt, mq := r.mut.tail()
		show.set("mutate_p50_ms", "ms", ms(r.mut.median()))
		show.set("mutate_p99_ms", "ms", ms(mt))
		show.set("visible_p50_ms", "ms", ms(r.vis.median()))
		show.set("period_ms", "ms", ms(r.per.median()))
		msg += fmt.Sprintf(", %d mutations (tail at p%.1f), %d visibility waits, %d periods", len(r.mut), 100*mq, len(r.vis), len(r.per))
	}
	fmt.Fprintln(os.Stderr, msg)
	if m == nil {
		printMetrics(os.Stderr, show)
	}
}
