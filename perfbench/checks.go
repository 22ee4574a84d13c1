package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// sampleChecks is how many deck queries the final replica comparison
// sends to each of leader, follower and router.
const sampleChecks = 128

// fetchSnapshot reads a daemon's GET /v1/snapshot, raw and decoded.
func fetchSnapshot(c *client, base string) ([]byte, *snapshotDoc, error) {
	raw, err := c.want(http.StatusOK, http.MethodGet, base+"/v1/snapshot", nil)
	if err != nil {
		return nil, nil, err
	}
	var snap snapshotDoc
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	return raw, &snap, nil
}

// state is the leader's quiesced state: its snapshot, its stats, and
// the oracle built from the snapshot's assignment.
type state struct {
	raw  []byte
	snap *snapshotDoc
	st   daemonStats
	or   *oracle
}

// capture reads the leader's snapshot and stats with no operation in
// flight, and builds the oracle. corrupt moves one peer to another
// cluster in the oracle's copy, so every check that uses it must fail.
func (r *run) capture(corrupt bool) (*state, error) {
	s := r.sys
	raw, snap, err := fetchSnapshot(s.lc, s.leader.n.url)
	if err != nil {
		return nil, err
	}
	st, err := s.lc.stats(s.leader.n.url)
	if err != nil {
		return nil, err
	}
	own := make(map[int]peerSpec, len(s.own))
	for slot, i := range s.own {
		own[slot] = s.pop.peers[i]
	}
	or, err := snapshotOracle(snap, own)
	if err != nil {
		return nil, err
	}
	if corrupt {
		or.corrupt()
	}
	return &state{raw: raw, snap: snap, st: st, or: or}, nil
}

// corrupt moves the first peer to another non-empty cluster.
func (o *oracle) corrupt() {
	from := o.cluster[0]
	for _, c := range o.cluster {
		if c != from {
			o.size[from]--
			o.size[c]++
			o.cluster[0] = c
			return
		}
	}
}

// checkState checks the membership invariants against the stats, the
// social cost against Eq. 2 recomputed from the snapshot, and — on a
// converged clustering — the protocol's stopping rule: no peer gains
// more than ε by moving to another existing cluster.
func (r *run) checkState(x *state, converged bool) {
	n, err := checkClusters(x.snap)
	if err != nil {
		r.problem("clusters: %v", err)
		return
	}
	if n != x.st.Clusters || len(x.snap.Peers) != x.st.Peers {
		r.problem("snapshot has %d peers in %d clusters, stats say %d in %d",
			len(x.snap.Peers), n, x.st.Peers, x.st.Clusters)
	}
	cm := newCostModel(x.snap)
	if got := cm.scost(); math.Abs(got-x.st.SCost) > 1e-9 {
		r.problem("Eq. 2 from the snapshot gives scost %.12f, daemon reports %.12f", got, x.st.SCost)
	}
	if converged {
		if gain, p := cm.unstable(); gain > x.snap.Epsilon+1e-12 {
			r.problem("converged clustering: peer %d of the snapshot gains %.6g > ε=%g by moving",
				p, gain, x.snap.Epsilon)
		}
	}
}

// checkDeck checks every recorded answer of a single-query deck
// against the oracle's rendering.
func (r *run) checkDeck(x *state, deck []query) int {
	checked := 0
	for i := range deck {
		q := &deck[i]
		if q.hash == 0 {
			continue
		}
		checked++
		if hash(render(x.or.answer(q.terms))) != q.hash {
			r.problem("query %q: answer differs from the brute-force count", q.terms)
			if len(r.problems) > 10 {
				return checked
			}
		}
	}
	return checked
}

// checkBatches checks every recorded batch answer against the oracle.
func (r *run) checkBatches(x *state, pool []query, deck []batch) int {
	want := make([]answer, len(pool))
	for i := range pool {
		want[i] = x.or.answer(pool[i].terms)
	}
	checked := 0
	for i := range deck {
		b := &deck[i]
		if b.hash == 0 {
			continue
		}
		checked++
		var ba batchAnswer
		for _, j := range b.idx {
			ba.Results = append(ba.Results, want[j])
		}
		if hash(render(ba)) != b.hash {
			r.problem("batch %d: answer differs from the brute-force count", i)
			if len(r.problems) > 10 {
				return checked
			}
		}
	}
	return checked
}

// checkReplicas compares the follower's snapshot with the leader's
// byte for byte, then sends the same queries and one batch to leader,
// follower and router: each answer must be byte-identical across the
// three and equal to the oracle's.
func (r *run) checkReplicas(x *state, deck []query) {
	s := r.sys
	fc := s.fw.c
	fraw, _, err := fetchSnapshot(fc, s.follower.n.url)
	if err != nil {
		r.problem("follower snapshot: %v", err)
		return
	}
	if !bytes.Equal(fraw, x.raw) {
		r.problem("follower snapshot differs from the leader's")
	}
	targets := []struct {
		name string
		c    *client
		url  string
	}{{"leader", s.lc, s.leader.n.url}, {"follower", fc, s.follower.n.url}, {"router", s.rc, s.router.n.url}}
	var bq struct {
		Queries []map[string][]string `json:"queries"`
	}
	var ba batchAnswer
	for i := 0; i < sampleChecks && i < len(deck); i++ {
		want := render(x.or.answer(deck[i].terms))
		for _, t := range targets {
			out, err := post(t.c, t.url+"/v1/query", deck[i].body)
			if r.ops.record("query", err) != nil {
				continue
			}
			if !bytes.Equal(out, want) {
				r.problem("%s answer for %q differs from the brute-force count", t.name, deck[i].terms)
				return
			}
		}
		if i < hotBatch {
			bq.Queries = append(bq.Queries, map[string][]string{"terms": deck[i].terms})
			ba.Results = append(ba.Results, x.or.answer(deck[i].terms))
		}
	}
	body, _ := json.Marshal(bq)
	want := render(ba)
	for _, t := range targets {
		out, err := post(t.c, t.url+"/v1/query/batch", body)
		if r.ops.record("batch", err) != nil {
			continue
		}
		if !bytes.Equal(out, want) {
			r.problem("%s batch answer differs from the brute-force count", t.name)
		}
	}
}
