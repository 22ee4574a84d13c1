package main

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// categorySnapshot is a hand-checkable instance: ten categories of
// three peers each, every peer holding two documents of its own
// category's words and querying words of its own category, each
// category in its own cluster. No query has a result outside its
// category, so the recall loss is zero and the social cost per peer is
// the membership term alone: Σ|c|²/|P|² = 10·3²/30² = 0.1.
func categorySnapshot() *snapshotDoc {
	snap := &snapshotDoc{Alpha: 1, Epsilon: 0.001, Slots: 30}
	for cat := 0; cat < 10; cat++ {
		w := func(j int) string { return fmt.Sprintf("c%d-w%d", cat, j) }
		for k := 0; k < 3; k++ {
			snap.Peers = append(snap.Peers, snapshotPeer{
				Slot:    3*cat + k,
				Cluster: cat,
				Items:   [][]string{{w(0), w(1 + k)}, {w(0), w(4)}},
				Queries: []queryWant{{Terms: []string{w(0)}, Count: 2}, {Terms: []string{w(1 + (k+1)%3)}, Count: 1}},
			})
		}
	}
	return snap
}

func statsOf(snap *snapshotDoc, scost float64) daemonStats {
	return daemonStats{Peers: len(snap.Peers), Clusters: 10, SCost: scost}
}

func TestOracleSocialCostOfCategoryClusters(t *testing.T) {
	snap := categorySnapshot()
	if got := newCostModel(snap).scost(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("scost = %.15f, want 0.1", got)
	}
	if n, err := checkClusters(snap); err != nil || n != 10 {
		t.Fatalf("checkClusters = %d, %v; want 10 clusters", n, err)
	}
	r := &run{}
	r.checkState(&state{snap: snap, st: statsOf(snap, 0.1)}, true)
	if len(r.problems) != 0 {
		t.Fatalf("ideal clustering fails its checks: %v", r.problems)
	}
}

func TestOracleAnswers(t *testing.T) {
	snap := categorySnapshot()
	o := newOracle(docsOf(snap), clustersOf(snap))
	// c3-w0 is in both documents of the three category-3 peers.
	want := answer{Total: 6, Clusters: []hit{{Cluster: 3, Size: 3, Results: 6, Recall: 1}}}
	if got := render(o.answer([]string{"c3-w0"})); !bytes.Equal(got, render(want)) {
		t.Fatalf("answer = %s, want %s", got, render(want))
	}
	// Both terms: only the first document of the peer with k = 1.
	want = answer{Total: 1, Clusters: []hit{{Cluster: 3, Size: 3, Results: 1, Recall: 1}}}
	if got := render(o.answer([]string{"c3-w0", "c3-w2"})); !bytes.Equal(got, render(want)) {
		t.Fatalf("answer = %s, want %s", got, render(want))
	}
	if got := o.answer([]string{"c3-w0", "c4-w0"}); got.Total != 0 || len(got.Clusters) != 0 {
		t.Fatalf("cross-category answer = %+v, want empty", got)
	}
	before := render(o.answer([]string{"c0-w0"}))
	o.corrupt()
	if bytes.Equal(render(o.answer([]string{"c0-w0"})), before) {
		t.Fatal("a corrupted oracle gives the same answer")
	}
}

func TestCorruptedAssignmentFailsChecks(t *testing.T) {
	snap := categorySnapshot()
	snap.Peers[0].Cluster = 1 // a category-0 peer in category 1's cluster
	r := &run{}
	r.checkState(&state{snap: snap, st: statsOf(snap, 0.1)}, true)
	if len(r.problems) != 2 {
		t.Fatalf("corrupted assignment: want the Eq. 2 and the ε checks to fail, got %v", r.problems)
	}
}

func TestCheckClustersRejectsBrokenInvariants(t *testing.T) {
	snap := categorySnapshot()
	snap.Peers[1].Slot = snap.Peers[0].Slot
	if _, err := checkClusters(snap); err == nil {
		t.Fatal("a slot listed twice passes")
	}
	snap = categorySnapshot()
	snap.Peers[0].Cluster = -1
	if _, err := checkClusters(snap); err == nil {
		t.Fatal("a live peer in no cluster passes")
	}
}

func docsOf(snap *snapshotDoc) [][][]string {
	var docs [][][]string
	for _, p := range snap.Peers {
		docs = append(docs, p.Items)
	}
	return docs
}

func clustersOf(snap *snapshotDoc) []int {
	var cl []int
	for _, p := range snap.Peers {
		cl = append(cl, p.Cluster)
	}
	return cl
}
