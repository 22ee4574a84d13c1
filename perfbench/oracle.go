package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// This file holds the benchmark's independent checks. They use the
// standard library only: every number the daemon reports is recomputed
// here from the corpus and the snapshot's cluster assignment, never by
// calling the program's own cost or routing code.

// snapshotDoc mirrors the GET /v1/snapshot document.
type snapshotDoc struct {
	Alpha   float64        `json:"alpha"`
	Epsilon float64        `json:"epsilon"`
	Slots   int            `json:"slots"`
	Peers   []snapshotPeer `json:"peers"`
}

type snapshotPeer struct {
	Slot    int         `json:"slot"`
	Cluster int         `json:"cluster"`
	Items   [][]string  `json:"items"`
	Queries []queryWant `json:"queries"`
}

// hit and answer mirror the query API's response body, in its field
// order, so an oracle answer renders to the exact bytes a correct
// daemon sends.
type hit struct {
	Cluster int     `json:"cluster"`
	Size    int     `json:"size"`
	Results int     `json:"results"`
	Recall  float64 `json:"recall"`
}

type answer struct {
	Total    int   `json:"total"`
	Clusters []hit `json:"clusters"`
}

type batchAnswer struct {
	Results []answer `json:"results"`
}

// render encodes v the way the daemon's JSON writer does: compact,
// with a trailing newline.
func render(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints and finite floats always marshal
	}
	return append(b, '\n')
}

// oracle answers queries by counting over its own copy of the corpus,
// grouped by a cluster assignment.
type oracle struct {
	// items[i] is one document as a term set; owner[i] the peer index.
	items []map[string]bool
	owner []int
	// byTerm lists the documents holding each term.
	byTerm map[string][]int
	// cluster[p] and size[c] describe the assignment; peers are
	// indexed 0..len(cluster)-1 in slot order.
	cluster []int
	size    map[int]int
}

// newOracle indexes peers' documents under the given assignment
// (cluster[p] is peer p's cluster).
func newOracle(docs [][][]string, cluster []int) *oracle {
	o := &oracle{byTerm: map[string][]int{}, cluster: cluster, size: map[int]int{}}
	for p, pd := range docs {
		o.size[cluster[p]]++
		for _, d := range pd {
			set := make(map[string]bool, len(d))
			for _, t := range d {
				if !set[t] {
					set[t] = true
					o.byTerm[t] = append(o.byTerm[t], len(o.items))
				}
			}
			o.items = append(o.items, set)
			o.owner = append(o.owner, p)
		}
	}
	return o
}

// results counts, per peer, the documents that hold every term.
func (o *oracle) results(terms []string) map[int]int {
	per := map[int]int{}
	if len(terms) == 0 {
		return per
	}
	for _, i := range o.byTerm[terms[0]] {
		all := true
		for _, t := range terms[1:] {
			if !o.items[i][t] {
				all = false
				break
			}
		}
		if all {
			per[o.owner[i]]++
		}
	}
	return per
}

// answer is the routing answer a correct daemon gives for terms.
func (o *oracle) answer(terms []string) answer {
	byCluster := map[int]int{}
	total := 0
	for p, n := range o.results(terms) {
		byCluster[o.cluster[p]] += n
		total += n
	}
	a := answer{Total: total, Clusters: []hit{}}
	for c, n := range byCluster {
		a.Clusters = append(a.Clusters, hit{Cluster: c, Size: o.size[c], Results: n, Recall: float64(n) / float64(total)})
	}
	sort.Slice(a.Clusters, func(i, j int) bool { return a.Clusters[i].Cluster < a.Clusters[j].Cluster })
	return a
}

// snapshotOracle builds the oracle over a snapshot's peers, after
// checking that every snapshot peer holds exactly the documents the
// benchmark joined into that slot (own[slot] is the benchmark's copy).
func snapshotOracle(snap *snapshotDoc, own map[int]peerSpec) (*oracle, error) {
	if len(snap.Peers) != len(own) {
		return nil, fmt.Errorf("snapshot has %d live peers, benchmark joined %d", len(snap.Peers), len(own))
	}
	docs := make([][][]string, len(snap.Peers))
	cl := make([]int, len(snap.Peers))
	for i, sp := range snap.Peers {
		spec, ok := own[sp.Slot]
		if !ok {
			return nil, fmt.Errorf("snapshot slot %d holds no peer the benchmark joined", sp.Slot)
		}
		if !sameDocs(sp.Items, spec.Items) {
			return nil, fmt.Errorf("snapshot slot %d holds other documents than were joined", sp.Slot)
		}
		docs[i] = spec.Items
		cl[i] = sp.Cluster
	}
	return newOracle(docs, cl), nil
}

func sameDocs(a, b [][]string) bool {
	return slices.EqualFunc(a, b, func(x, y []string) bool {
		return slices.Equal(sortedSet(x), sortedSet(y))
	})
}

func sortedSet(terms []string) []string {
	s := slices.Clone(terms)
	slices.Sort(s)
	return slices.Compact(s)
}

// checkClusters checks the membership invariants of a snapshot: each
// live peer occupies one slot and sits in exactly one cluster, and the
// cluster sizes sum to the live peers. It returns the non-empty
// cluster count.
func checkClusters(snap *snapshotDoc) (int, error) {
	seen := map[int]bool{}
	size := map[int]int{}
	for _, p := range snap.Peers {
		if p.Slot < 0 || p.Slot >= snap.Slots {
			return 0, fmt.Errorf("peer slot %d outside [0,%d)", p.Slot, snap.Slots)
		}
		if seen[p.Slot] {
			return 0, fmt.Errorf("slot %d listed twice", p.Slot)
		}
		seen[p.Slot] = true
		if p.Cluster < 0 {
			return 0, fmt.Errorf("live peer %d in no cluster", p.Slot)
		}
		size[p.Cluster]++
	}
	sum := 0
	for _, n := range size {
		sum += n
	}
	if sum != len(snap.Peers) {
		return 0, fmt.Errorf("cluster sizes sum to %d, live peers %d", sum, len(snap.Peers))
	}
	return len(size), nil
}

// costModel evaluates the paper's individual and social cost (Eq. 1
// and 2, linear θ) over a snapshot: pcost(p, c) = α·|c|/|P| plus, for
// every answerable query q of p's workload, w_p(q)·(1 − res_c(q)/res(q))
// with w_p(q) = num(q, Q(p))/num(Q(p)).
type costModel struct {
	alpha float64
	n     int
	// peers in snapshot order: cluster, workload (query key, weight),
	// and own results per query key.
	cl   []int
	wl   [][]weighted
	own  []map[string]float64
	size map[int]int
	// res[q][c] sums results of q over cluster c; tot[q] over all.
	res map[string]map[int]float64
	tot map[string]float64
}

type weighted struct {
	key string
	w   float64
}

func newCostModel(snap *snapshotDoc) *costModel {
	m := &costModel{alpha: snap.Alpha, n: len(snap.Peers), size: map[int]int{},
		res: map[string]map[int]float64{}, tot: map[string]float64{}}
	docs := make([][][]string, len(snap.Peers))
	for i, p := range snap.Peers {
		docs[i] = p.Items
		m.cl = append(m.cl, p.Cluster)
		m.size[p.Cluster]++
	}
	o := newOracle(docs, m.cl)
	queries := map[string][]string{}
	for _, p := range snap.Peers {
		var wl []weighted
		sum := 0
		for _, q := range p.Queries {
			sum += q.Count
		}
		for _, q := range p.Queries {
			terms := sortedSet(q.Terms)
			key := strings.Join(terms, "\x00")
			queries[key] = terms
			wl = append(wl, weighted{key: key, w: float64(q.Count) / float64(sum)})
		}
		m.wl = append(m.wl, wl)
		m.own = append(m.own, map[string]float64{})
	}
	for key, terms := range queries {
		row := map[int]float64{}
		for p, n := range o.results(terms) {
			row[m.cl[p]] += float64(n)
			m.tot[key] += float64(n)
			m.own[p][key] = float64(n)
		}
		m.res[key] = row
	}
	return m
}

// cost is pcost of peer i in cluster c (joining c when it is not i's).
func (m *costModel) cost(i, c int) float64 {
	size := m.size[c]
	if c != m.cl[i] {
		size++
	}
	cost := m.alpha * float64(size) / float64(m.n)
	for _, q := range m.wl[i] {
		t := m.tot[q.key]
		if t == 0 {
			continue
		}
		r := m.res[q.key][c]
		if c != m.cl[i] {
			r += m.own[i][q.key]
		}
		cost += q.w * (1 - r/t)
	}
	return cost
}

// scost is the social cost (Eq. 2) divided by |P|.
func (m *costModel) scost() float64 {
	var s float64
	for i := range m.cl {
		s += m.cost(i, m.cl[i])
	}
	return s / float64(m.n)
}

// unstable returns the largest gain any peer could still get by moving
// to another non-empty cluster, and that peer's index.
func (m *costModel) unstable() (gain float64, peer int) {
	gain, peer = math.Inf(-1), -1
	for i := range m.cl {
		cur := m.cost(i, m.cl[i])
		for c := range m.size {
			if c == m.cl[i] {
				continue
			}
			if g := cur - m.cost(i, c); g > gain {
				gain, peer = g, i
			}
		}
	}
	return gain, peer
}
