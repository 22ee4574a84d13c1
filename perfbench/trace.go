package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/viewwire"
)

// The traced run gives the per-layer metrics. It times the benchmark's
// own calls into each layer's public functions, from outside the
// program, and records each call as a span: name, start, end, parent
// span and request id. Spans stay in memory and are written to
// .bench_build/trace/ when the run ends.

// Traced-run shapes.
const (
	traceWindow  = 3 * time.Second // the traced load window
	ladderQuery  = 2048            // queries per rung of the query ladder
	ladderBatch  = 256             // batches per rung of the batch ladder
	ladderTurns  = 32              // churn cycles of the mutation ladder
	ownTurns     = 64              // churn cycles on the benchmark-owned engine
	wireReps     = 15              // repetitions of each full-record codec call
	allocQueries = 4096            // queries of the allocation count
)

// span is one traced call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it and returns its
// duration.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	sp := &t.spans[id-1]
	sp.End = int64(time.Since(t.epoch))
	return time.Duration(sp.End - sp.Start)
}

// call runs fn inside a span and returns its duration.
func (t *tracer) call(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

// selfTimes returns, per span name, the median duration and the median
// self time: the duration less the time its child spans cover.
func (t *tracer) selfTimes() map[string][2]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	dur := map[string]samples{}
	self := map[string]samples{}
	for _, sp := range t.spans {
		d := time.Duration(sp.End - sp.Start)
		dur[sp.Name] = append(dur[sp.Name], d)
		self[sp.Name] = append(self[sp.Name], d-time.Duration(child[sp.ID]))
	}
	out := map[string][2]time.Duration{}
	for n := range dur {
		out[n] = [2]time.Duration{dur[n].median(), self[n].median()}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceDir is where traced runs write their spans, relative to the
// checkout root the benchmark runs from.
const traceDir = ".bench_build/trace"

// traced sets the system up once, runs the workload's load untraced
// and then traced, and walks each layer's ladder.
func (r *run) traced(sc experiments.Scenario) error {
	tr := newTracer()
	if err := r.setUpAll(sc, 1, 1); err != nil {
		return err
	}
	delete(r.m, "setup_s") // an end-to-end metric; untraced runs report it
	r.m.set("runtime.heap_after_setup_mb", "MB", liveHeapMB())
	if err := r.tracedLoad(tr); err != nil {
		return err
	}
	if err := r.queryLadder(tr); err != nil {
		return err
	}
	if err := r.mutationLadder(tr); err != nil {
		return err
	}
	if err := r.ownedLadder(tr, sc); err != nil {
		return err
	}
	st := tr.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%d spans; median duration and self time per span name:\n", len(tr.spans))
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %12.1f us %12.1f us\n", n, us(st[n][0]), us(st[n][1]))
	}
	return tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.name, r.seed))
}

// tracedLoad runs the workload's own load for one --seconds window
// untraced and one shorter window traced, and reports the difference
// in per-request latency as the tracing overhead. The traced window
// also gives the route-cache hit ratio and the collector's work under
// load.
func (r *run) tracedLoad(tr *tracer) error {
	s := r.sys
	var step func() error
	switch r.name {
	case "query-miss":
		deck := makeDeck(s.pop, r.rng.Split(), missDeck)
		step = func() error { return r.queryMiss(deck) }
	case "query-hot":
		_, bdeck := hotDecks(s.pop, r.rng.Split())
		step = func() error { return r.queryHot(bdeck) }
	case "churn-replicated":
		deck := makeDeck(s.pop, r.rng.Split(), churnDeck)
		totals := corpusTotals(s.pop, deck)
		step = func() error { return r.churnReplicated(deck, totals) }
	}
	if err := step(); err != nil {
		return err
	}
	pq, pm, pv, pp := r.qlat, r.mut, r.vis, r.per
	r.qlat = nil
	r.seconds = traceWindow
	r.spans = tr
	// Churn reads go to the router, the query workloads to the leader.
	cacheOf := s.leader.n.url
	if r.name == "churn-replicated" {
		cacheOf = s.router.n.url
	}
	before, err := s.lc.stats(cacheOf)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err = step()
	runtime.ReadMemStats(&ms1)
	r.spans = nil
	if err != nil {
		return err
	}
	after, err := s.lc.stats(cacheOf)
	if err != nil {
		return err
	}
	r.m.set("trace.overhead_us", "us", us(r.qlat.median()-pq.median()))
	r.m.set("runtime.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	r.m.set("runtime.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	hits := after.RouteCache.Hits - before.RouteCache.Hits
	r.m.set("core.cache_hit_ratio", "ratio", ratio(hits, hits+after.RouteCache.Misses-before.RouteCache.Misses))
	// Before any settling: on churn-replicated the router's route-cache
	// entries still pin every view the load read.
	r.m.set("runtime.heap_after_load_mb", "MB", liveHeapMB())

	// The untraced window also gives what the untraced runs print but
	// do not gate; a probe measures the mutation path when the
	// workload's own load has none, and fresh replicas the catch-up.
	r.qlat, r.mut, r.vis, r.per = pq, pm, pv, pp
	if r.name != "churn-replicated" {
		if err := r.probe(); err != nil {
			return err
		}
	}
	r.ungated(r.m)
	cu, err := r.catchUp()
	if err != nil {
		return err
	}
	r.m.set("catchup_ms", "ms", ms(cu.median()))
	r.qlat, r.mut, r.vis, r.per, r.scosts = nil, nil, nil, nil, nil
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// served is the leader's published view as a router would rebuild it
// from the replication feed.
type served struct {
	raw   []byte
	rec   viewwire.Record
	rv    *core.RoutingView
	terms map[string]attr.ID
}

func fetchServed(c *client, base string) (*served, error) {
	raw, err := c.want(http.StatusOK, http.MethodGet, base+"/v1/view/watch?timeout_ms=1000", nil)
	if err != nil {
		return nil, err
	}
	rec, err := viewwire.Decode(raw)
	if err != nil {
		return nil, err
	}
	rv, err := core.FromViewData(rec.View)
	if err != nil {
		return nil, err
	}
	terms := make(map[string]attr.ID, len(rec.Terms))
	for id, t := range rec.Terms {
		terms[t] = attr.ID(id)
	}
	return &served{raw: raw, rec: rec, rv: rv, terms: terms}, nil
}

func (sv *served) set(terms []string) attr.Set {
	ids := make([]attr.ID, 0, len(terms))
	for _, t := range terms {
		ids = append(ids, sv.terms[t])
	}
	return attr.NewSet(ids...)
}

// newReq builds an in-process request and its recorder.
func newReq(method, target string, body []byte) (*http.Request, *httptest.ResponseRecorder) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	return httptest.NewRequest(method, target, rd), httptest.NewRecorder()
}

// queryLadder times one query at every rung of the read path: the
// loopback round trip, the daemon's handler in-process, api.ServeQuery
// and api.AnswerQuery on the served view, and core's Route, uncached
// and cached. Each query is one request id; each rung is a child span
// of the query's root span, and a rung's self time is its median less
// the next rung's.
func (r *run) queryLadder(tr *tracer) error {
	s := r.sys
	sv, err := fetchServed(s.lc, s.leader.n.url)
	if err != nil {
		return err
	}
	h := s.leader.s.Handler()
	cache := core.NewRouteCache(4096)
	deck := makeDeck(s.pop, r.rng.Split(), ladderQuery)
	url := s.leader.n.url + "/v1/query"
	var net, svc, serve, ans, route, cached samples
	var sc core.RouteScratch
	for pass := 0; pass < 2; pass++ {
		for i := range deck {
			q := &deck[i]
			req := pass*len(deck) + i + 1
			root := tr.begin("query", 0, req)
			var err error
			d := tr.call("net.roundtrip", root, req, func() { _, err = post(s.lc, url, q.body) })
			if r.ops.record("query", err) != nil {
				return err
			}
			net.add(d)
			hreq, rec := newReq(http.MethodPost, "/v1/query", q.body)
			svc.add(tr.call("service.handler", root, req, func() { h.ServeHTTP(rec, hreq) }))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process query: status %d", rec.Code)
			}
			areq, arec := newReq(http.MethodPost, "/v1/query", q.body)
			serve.add(tr.call("api.serve_query", root, req, func() { api.ServeQuery(arec, areq, sv.terms, sv.rv, cache) }))
			a := api.GetScratch()
			ans.add(tr.call("api.answer", root, req, func() { api.AnswerQuery(sv.terms, sv.rv, nil, q.terms, a) }))
			api.PutScratch(a)
			set := sv.set(q.terms)
			route.add(tr.call("core.route", root, req, func() { sv.rv.Route(set, &sc) }))
			cached.add(tr.call("core.route_cached", root, req, func() { sv.rv.RouteCached(set, cache, &sc) }))
			tr.end(root)
		}
	}
	r.m.set("net.query_overhead_us", "us", us(net.median()-svc.median()))
	r.m.set("service.query_handler_us", "us", us(svc.median()))
	r.m.set("api.serve_query_us", "us", us(serve.median()))
	r.m.set("api.answer_us", "us", us(ans.median()))
	r.m.set("core.route_us", "us", us(route.median()))
	r.m.set("core.route_cached_us", "us", us(cached.median()))

	_, bdeck := hotDecks(s.pop, r.rng.Split())
	var bsvc, bserve samples
	for i := 0; i < ladderBatch; i++ {
		b := &bdeck[i%len(bdeck)]
		root := tr.begin("batch", 0, i+1)
		hreq, rec := newReq(http.MethodPost, "/v1/query/batch", b.body)
		bsvc.add(tr.call("service.batch_handler", root, i+1, func() { h.ServeHTTP(rec, hreq) }))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process batch: status %d", rec.Code)
		}
		areq, arec := newReq(http.MethodPost, "/v1/query/batch", b.body)
		bserve.add(tr.call("api.serve_batch", root, i+1, func() { api.ServeQueryBatch(arec, areq, sv.terms, sv.rv, cache) }))
		tr.end(root)
	}
	r.m.set("service.batch_handler_us", "us", us(bsvc.median()))
	r.m.set("api.serve_batch_us", "us", us(bserve.median()))
	r.m.set("api.allocs_per_query", "count", allocsPerQuery(sv, cache, deck))

	// The full record's wire codec and a router's apply of it.
	var enc, dec, apply samples
	rt := router.New(router.Config{Upstream: "http://127.0.0.1:1"})
	for i := 0; i < wireReps; i++ {
		enc.add(tr.call("viewwire.encode_full", 0, i+1, func() { viewwire.AppendFull(nil, sv.rec.Seq, sv.rec.Terms, sv.rv.Export()) }))
		var rec viewwire.Record
		dec.add(tr.call("viewwire.decode_full", 0, i+1, func() { rec, err = viewwire.Decode(sv.raw) }))
		if err != nil {
			return err
		}
		apply.add(tr.call("router.apply_full", 0, i+1, func() { err = rt.ApplyRecord(rec) }))
		if err != nil {
			return err
		}
	}
	r.m.set("viewwire.full_kb", "KB", float64(len(sv.raw))/1024)
	r.m.set("viewwire.encode_full_ms", "ms", ms(enc.median()))
	r.m.set("viewwire.decode_full_ms", "ms", ms(dec.median()))
	r.m.set("router.apply_full_ms", "ms", ms(apply.median()))
	return nil
}

// sink is a response writer that keeps nothing, so an allocation
// count sees only the serving path's own allocations.
type sink struct{ h http.Header }

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(b []byte) (int, error) { return len(b), nil }
func (s *sink) WriteHeader(int)             {}

type rewind struct{ *bytes.Reader }

func (rewind) Close() error { return nil }

// allocsPerQuery counts heap allocations per api.ServeQuery call,
// request decoding and response encoding included.
func allocsPerQuery(sv *served, cache *core.RouteCache, deck []query) float64 {
	w := &sink{h: http.Header{}}
	body := rewind{bytes.NewReader(nil)}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", nil)
	req.Body = body
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocQueries; i++ {
		body.Reset(deck[i%len(deck)].body)
		api.ServeQuery(w, req, sv.terms, sv.rv, cache)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / allocQueries
}

// mutationLadder runs churn cycles through the leader's handler
// in-process, timing each join and leave handler call and, after each
// acknowledgement, the follower's and the router's lag, with a
// maintenance period every few cycles. The daemon's own counters give
// views, records, log entries and scan outcomes per operation.
func (r *run) mutationLadder(tr *tracer) error {
	s := r.sys
	h := s.leader.s.Handler()
	ch := newChurner(s, r.rng.Split())
	st0, err := s.lc.stats(s.leader.n.url)
	if err != nil {
		return err
	}
	var join, leave, flag, rlag, statsRead samples
	var periodEntries, periodViews uint64
	var rounds, moves, periods int
	// lag reads the leader's position through its handler and times the
	// follower's and the router's catch-up to it, in parallel, from the
	// acknowledgement at ack. Both lags include that one /v1/stats call,
	// whose median the run reports as service.stats_read_us.
	lag := func(root, req int, ack time.Time) error {
		hreq, rec := newReq(http.MethodGet, "/v1/stats", nil)
		statsRead.add(tr.call("service.stats_read", root, req, func() { h.ServeHTTP(rec, hreq) }))
		if err := s.setPosition(rec.Body.Bytes()); err != nil {
			return err
		}
		done := make(chan time.Duration, 1)
		seq := s.seq
		go func() {
			if s.router.rt.WaitSynced(seq, waitLimit) {
				done <- time.Since(ack)
			} else {
				done <- -1
			}
		}()
		id := tr.begin("service.follower_wait", root, req)
		err := s.fw.await(s.logIdx, waitLimit)
		tr.end(id)
		flag.add(time.Since(ack))
		d := <-done
		if err != nil {
			return err
		}
		if d < 0 {
			return fmt.Errorf("router stuck at seq %d, leader at %d", s.router.rt.Seq(), seq)
		}
		rlag.add(d)
		return nil
	}
	for i := 0; i < ladderTurns; i++ {
		req := i + 1
		root := tr.begin("mutation_cycle", 0, req)
		k := ch.rng.Intn(len(ch.slots))
		slot := ch.slots[k]
		peerIdx := s.own[slot]
		hreq, rec := newReq(http.MethodDelete, "/v1/peers/"+strconv.Itoa(slot), nil)
		leave.add(tr.call("service.leave_handler", root, req, func() { h.ServeHTTP(rec, hreq) }))
		if r.ops.record("leave", statusErr(rec, http.StatusOK)) != nil {
			return statusErr(rec, http.StatusOK)
		}
		ack := time.Now()
		delete(s.own, slot)
		if err := lag(root, req, ack); err != nil {
			return err
		}
		hreq, rec = newReq(http.MethodPost, "/v1/peers", s.pop.bodies[peerIdx])
		join.add(tr.call("service.join_handler", root, req, func() { h.ServeHTTP(rec, hreq) }))
		ack = time.Now()
		if r.ops.record("join", statusErr(rec, http.StatusCreated)) != nil {
			return statusErr(rec, http.StatusCreated)
		}
		var jr struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
			return err
		}
		s.own[jr.ID] = peerIdx
		ch.slots[k] = jr.ID
		if err := lag(root, req, ack); err != nil {
			return err
		}
		tr.end(root)
		if (i+1)%turnsPerTick != 0 {
			continue
		}
		a, err := s.lc.stats(s.leader.n.url)
		if err != nil {
			return err
		}
		var rep reformReply
		tr.call("service.period", 0, req, func() { rep, _, err = s.period(r.ops) })
		if err != nil {
			return err
		}
		if err := s.refresh(); err != nil {
			return err
		}
		b, err := s.lc.stats(s.leader.n.url)
		if err != nil {
			return err
		}
		periodEntries += b.Replication.LogLast - a.Replication.LogLast
		periodViews += uint64(b.PublishedViews - a.PublishedViews)
		rounds += rep.Rounds
		moves += rep.Moves
		periods++
		if err := s.sync(); err != nil {
			return err
		}
	}
	st1, err := s.lc.stats(s.leader.n.url)
	if err != nil {
		return err
	}
	mutations := float64(2 * ladderTurns)
	r.m.set("service.join_handler_ms", "ms", ms(join.median()))
	r.m.set("service.leave_handler_ms", "ms", ms(leave.median()))
	r.m.set("service.follower_lag_ms", "ms", ms(flag.median()))
	r.m.set("service.stats_read_us", "us", us(statsRead.median()))
	r.m.set("router.lag_ms", "ms", ms(rlag.median()))
	// The daemon's hold histogram spans its whole life, set-up
	// included; the ladder's own holds are the difference of the two
	// readings.
	holds := st1.MutationLock.Holds - st0.MutationLock.Holds
	r.m.set("service.lock_hold_mean_us", "us", (float64(st1.MutationLock.Holds)*st1.MutationLock.MeanUs-
		float64(st0.MutationLock.Holds)*st0.MutationLock.MeanUs)/float64(max(holds, 1)))
	r.m.set("service.views_per_mutation", "count", (float64(st1.PublishedViews-st0.PublishedViews)-float64(periodViews))/mutations)
	r.m.set("service.full_records", "count", float64(st1.WatchFull-st0.WatchFull))
	r.m.set("service.delta_records", "count", float64(st1.WatchDelta-st0.WatchDelta))
	r.m.set("replog.entries_per_mutation", "count", (float64(st1.Replication.LogLast-st0.Replication.LogLast)-float64(periodEntries))/mutations)
	r.m.set("replog.entries_per_period", "count", float64(periodEntries)/float64(periods))
	r.m.set("protocol.rounds_per_period", "count", float64(rounds)/float64(periods))
	r.m.set("protocol.moves_per_period", "count", float64(moves)/float64(periods))
	scanned := st1.Maintenance.Scanned - st0.Maintenance.Scanned
	r.m.set("core.scan_skip_ratio", "ratio", ratio(st1.Maintenance.SkippedClean-st0.Maintenance.SkippedClean, scanned))
	r.m.set("core.shortlist_ratio", "ratio", ratio(st1.Maintenance.ShortlistHits-st0.Maintenance.ShortlistHits, scanned))
	return nil
}

func statusErr(rec *httptest.ResponseRecorder, want int) error {
	if rec.Code != want {
		return fmt.Errorf("status %d, want %d: %s", rec.Code, want, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// ownedLadder replays churn cycles on an engine and protocol runner the
// benchmark owns, built from the same corpus with the daemon's
// options, timing AddPeer, RemovePeer, the routing-view build that
// follows each, every Step(32) of the maintenance periods, and a
// router's apply of each period's relocation delta.
func (r *run) ownedLadder(tr *tracer, sc experiments.Scenario) error {
	p := corpusParams()
	sys := experiments.Build(p, sc)
	eng := sys.NewEngine(cluster.NewSingletons(p.Peers))
	d := daemonConfig(nil)
	runner := protocol.NewRunner(eng, core.NewSelfish(), protocol.Options{
		Epsilon:          p.Epsilon,
		MaxRounds:        300,
		AllowNewClusters: true,
		Workers:          runtime.GOMAXPROCS(0),
		ExactDecide:      d.ExactDecide,
	})
	if sc == experiments.SameCategory {
		runner.Run()
	}
	voc := sys.Gen.Vocab()
	names := make([]string, voc.Len())
	for i := range names {
		names[i] = voc.Name(attr.ID(i))
	}
	rng := r.rng.Split()
	rv := eng.BuildRoutingView(nil)
	rt := router.New(router.Config{Upstream: "http://127.0.0.1:1"})
	var add, remove, build, step, delta samples
	steps := 0
	for i := 0; i < ownTurns; i++ {
		req := i + 1
		pid := rng.Intn(eng.NumSlots())
		items := eng.Peers()[pid].Items()
		var qs []attr.Set
		var counts []int
		for _, en := range eng.Workload().Peer(pid) {
			qs = append(qs, eng.Workload().Query(en.Q))
			counts = append(counts, en.Count)
		}
		remove.add(tr.call("core.remove_peer", 0, req, func() { eng.RemovePeer(pid) }))
		build.add(tr.call("core.build_view", 0, req, func() { rv = eng.BuildRoutingView(rv) }))
		pr := peer.New(-1)
		pr.SetItems(items)
		add.add(tr.call("core.add_peer", 0, req, func() { eng.AddPeer(pr, qs, counts, cluster.None) }))
		build.add(tr.call("core.build_view", 0, req, func() { rv = eng.BuildRoutingView(rv) }))
		if (i+1)%turnsPerTick != 0 {
			continue
		}
		full := viewwire.AppendFull(nil, uint64(i), names, rv.Export())
		per := runner.Begin()
		root := tr.begin("protocol.period", 0, req)
		for done := false; !done; {
			step.add(tr.call("protocol.step", root, req, func() { done = per.Step(32) }))
			steps++
		}
		tr.end(root)
		next := eng.BuildRoutingView(rv)
		moves, ok := next.DiffFrom(rv)
		if !ok {
			return fmt.Errorf("owned engine: a period changed the population")
		}
		frec, err := viewwire.Decode(full)
		if err != nil {
			return err
		}
		drec, err := viewwire.Decode(viewwire.AppendDelta(nil, uint64(i)+1, rv.PopVersion(), moves))
		if err != nil {
			return err
		}
		if err := rt.ApplyRecord(frec); err != nil {
			return err
		}
		delta.add(tr.call("router.apply_delta", 0, req, func() { err = rt.ApplyRecord(drec) }))
		if err != nil {
			return err
		}
		rv = next
	}
	r.m.set("core.add_peer_us", "us", us(add.median()))
	r.m.set("core.remove_peer_us", "us", us(remove.median()))
	r.m.set("core.build_view_ms", "ms", ms(build.median()))
	r.m.set("protocol.step_ms", "ms", ms(step.median()))
	r.m.set("protocol.steps_per_period", "count", float64(steps)/float64(ownTurns/turnsPerTick))
	r.m.set("router.apply_delta_us", "us", us(delta.median()))
	return nil
}
