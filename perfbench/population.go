package main

import (
	"encoding/json"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// corpusSeed fixes the population: every run of every workload serves
// the paper corpus generated from this seed, so run-to-run differences
// come from the seeded request sequences alone.
const corpusSeed = 1

// peerSpec is one peer of the population as the join API sees it.
type peerSpec struct {
	Items   [][]string  `json:"items"`
	Queries []queryWant `json:"queries"`
}

type queryWant struct {
	Terms []string `json:"terms"`
	Count int      `json:"count"`
}

// population is the benchmark's own copy of the generated corpus: the
// join bodies it sends and the documents queries are drawn from.
type population struct {
	peers []peerSpec
	// bodies[i] is the pre-rendered POST /v1/peers body of peers[i].
	bodies [][]byte
	// docs lists every document (one peer item) of the corpus.
	docs [][]string
	// categories and vocabulary size, for the README's input make-up.
	vocab int
}

// buildPopulation generates the paper corpus (10 categories x 2,000
// words, 5 documents per peer, 3-word focused interests) at ~1,000
// peers under the given scenario.
func buildPopulation(sc experiments.Scenario) *population {
	sys := experiments.Build(corpusParams(), sc)
	voc := sys.Gen.Vocab()
	pop := &population{vocab: voc.Len()}
	for i, pr := range sys.Peers {
		var spec peerSpec
		for _, it := range pr.Items() {
			doc := it.Names(voc)
			spec.Items = append(spec.Items, doc)
			pop.docs = append(pop.docs, doc)
		}
		for _, en := range sys.WL.Peer(i) {
			spec.Queries = append(spec.Queries, queryWant{
				Terms: sys.WL.Query(en.Q).Names(voc),
				Count: en.Count,
			})
		}
		body, err := json.Marshal(spec)
		if err != nil {
			panic(err) // plain strings and ints always marshal
		}
		pop.peers = append(pop.peers, spec)
		pop.bodies = append(pop.bodies, body)
	}
	return pop
}

// corpusParams are the paper's corpus parameters at 1,000 peers with
// ten queries per peer.
func corpusParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Peers = 1000
	p.TotalQueries = 10 * p.Peers
	p.Seed = corpusSeed
	return p
}

// drawQuery returns 1-2 distinct terms of one uniformly drawn corpus
// document, so every query has at least one result while its holder
// is live.
func (pop *population) drawQuery(rng *stats.RNG) []string {
	doc := pop.docs[rng.Intn(len(pop.docs))]
	a := rng.Intn(len(doc))
	if len(doc) < 2 || rng.Intn(2) == 0 {
		return []string{doc[a]}
	}
	b := rng.Intn(len(doc) - 1)
	if b >= a {
		b++
	}
	return []string{doc[a], doc[b]}
}

// allDocs lists every peer's documents, in population order.
func (pop *population) allDocs() [][][]string {
	docs := make([][][]string, len(pop.peers))
	for i := range pop.peers {
		docs[i] = pop.peers[i].Items
	}
	return docs
}
