package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/viewwire"
)

// waitLimit bounds every wait on a replica; a replica that needs
// longer fails the operation.
const waitLimit = 30 * time.Second

// system is one set-up deployment: a leader with every peer joined and
// converged, a follower, and a router, all in-process over loopback.
type system struct {
	pop      *population
	leader   *daemon
	follower *daemon
	router   *replica
	// lc talks to the leader, rc to the router, each on one keep-alive
	// connection; fw follows the follower's own mutation-log feed.
	lc, rc *client
	fw     *logWaiter
	// own maps each live slot to the index of the peer the benchmark
	// joined there.
	own map[int]int
	// logIdx, seq and popVer are the leader's log index, view sequence
	// and population version as /v1/stats showed them at the last
	// refresh.
	logIdx, seq uint64
	popVer      uint64
}

func (s *system) stop() {
	if s.router != nil {
		s.router.stop()
	}
	if s.follower != nil {
		s.follower.stop()
	}
	if s.leader != nil {
		s.leader.stop()
	}
	s.lc.close()
	s.rc.close()
	if s.fw != nil {
		s.fw.c.close()
	}
}

// reformReply is the POST /v1/reform answer.
type reformReply struct {
	Rounds    int     `json:"rounds"`
	Moves     int     `json:"moves"`
	Converged bool    `json:"converged"`
	SCost     float64 `json:"scost"`
}

// setUp builds the corpus, joins every peer over HTTP, with converge
// runs maintenance periods until one moves no peer, and attaches a
// follower and a router, waiting until both hold the leader's state.
func setUp(sc experiments.Scenario, converge bool, o *ops) (*system, error) {
	s := &system{pop: buildPopulation(sc), lc: newClient(), rc: newClient(), own: map[int]int{}}
	var err error
	if s.leader, err = startDaemon(nil); err != nil {
		return s, err
	}
	for i, body := range s.pop.bodies {
		out, err := s.lc.want(http.StatusCreated, http.MethodPost, s.leader.n.url+"/v1/peers", body)
		if o.record("join", err) != nil {
			return s, err
		}
		var jr struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(out, &jr); err != nil {
			return s, fmt.Errorf("join reply: %w", err)
		}
		s.own[jr.ID] = i
	}
	for i := 0; converge; i++ {
		if i == 50 {
			return s, fmt.Errorf("setup: no quiet period after 50 periods")
		}
		rep, _, err := s.period(o)
		if err != nil {
			return s, err
		}
		if rep.Moves == 0 {
			break
		}
	}
	if err := s.refresh(); err != nil {
		return s, err
	}
	if s.follower, err = startDaemon([]string{s.leader.n.url}); err != nil {
		return s, err
	}
	if s.router, err = startRouter(s.leader.n.url); err != nil {
		return s, err
	}
	fc := newClient()
	if err := awaitInstalled(fc, s.follower.n.url, s.popVer); err != nil {
		return s, err
	}
	fst, err := fc.stats(s.follower.n.url)
	if err != nil {
		return s, err
	}
	s.fw = &logWaiter{c: fc, base: s.follower.n.url, epoch: fst.Replication.Epoch, have: fst.Replication.LogLast}
	return s, s.sync()
}

// period runs one maintenance period and returns its reply and time.
func (s *system) period(o *ops) (reformReply, time.Duration, error) {
	var rep reformReply
	t0 := time.Now()
	out, err := s.lc.want(http.StatusOK, http.MethodPost, s.leader.n.url+"/v1/reform", nil)
	d := time.Since(t0)
	if err == nil {
		err = json.Unmarshal(out, &rep)
	}
	return rep, d, o.record("period", err)
}

// refresh reads the leader's log index, view sequence and population
// version. The benchmark never assumes how far an operation moves
// them: it reads them after every acknowledged join, leave and period,
// outside the operation's own timing.
func (s *system) refresh() error {
	out, err := s.lc.want(http.StatusOK, http.MethodGet, s.leader.n.url+"/v1/stats", nil)
	if err != nil {
		return err
	}
	return s.setPosition(out)
}

// setPosition takes the leader's position from a /v1/stats body.
func (s *system) setPosition(stats []byte) error {
	var st daemonStats
	if err := json.Unmarshal(stats, &st); err != nil {
		return fmt.Errorf("leader stats: %w", err)
	}
	s.logIdx, s.seq, s.popVer = st.Replication.LogLast, st.ViewSeq, st.PopVersion
	return nil
}

// sync waits until the follower's log and the router's view hold the
// leader's expected position.
func (s *system) sync() error {
	if err := s.fw.await(s.logIdx, waitLimit); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	if !s.router.rt.WaitSynced(s.seq, waitLimit) {
		return fmt.Errorf("router stuck at seq %d, leader at %d", s.router.rt.Seq(), s.seq)
	}
	return nil
}

// leave retires the peer in slot.
func (s *system) leave(slot int) error {
	_, err := s.lc.want(http.StatusOK, http.MethodDelete, s.leader.n.url+"/v1/peers/"+strconv.Itoa(slot), nil)
	if err != nil {
		return err
	}
	delete(s.own, slot)
	return nil
}

// join admits peer i of the population and returns its slot.
func (s *system) join(i int) (int, error) {
	out, err := s.lc.want(http.StatusCreated, http.MethodPost, s.leader.n.url+"/v1/peers", s.pop.bodies[i])
	if err != nil {
		return 0, err
	}
	var jr struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(out, &jr); err != nil {
		return 0, fmt.Errorf("join reply: %w", err)
	}
	if _, taken := s.own[jr.ID]; taken {
		return 0, fmt.Errorf("join placed a peer in occupied slot %d", jr.ID)
	}
	s.own[jr.ID] = i
	return jr.ID, nil
}

// awaitInstalled long-polls a follower's own view feed until it serves
// a view of the leader's population version pop, which it does once
// its catch-up snapshot is installed.
func awaitInstalled(c *client, base string, pop uint64) error {
	deadline := time.Now().Add(waitLimit)
	pos := ""
	for {
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("follower at %s never installed population %d", base, pop)
		}
		req, err := http.NewRequest(http.MethodGet, base+"/v1/view/watch?timeout_ms="+
			strconv.FormatInt(left.Milliseconds()+1, 10)+pos, nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("follower view feed: %w", err)
		}
		body, err := readAll(resp)
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusNoContent:
			continue
		case http.StatusOK:
		default:
			return fmt.Errorf("follower view feed: status %d", resp.StatusCode)
		}
		rec, err := viewwire.Decode(body)
		if err != nil {
			return fmt.Errorf("follower view feed: %w", err)
		}
		if rec.PopVersion == pop {
			return nil
		}
		pos = "&seq=" + strconv.FormatUint(rec.Seq, 10) + "&pop=" + strconv.FormatUint(rec.PopVersion, 10) +
			"&epoch=" + resp.Header.Get("X-Reform-Epoch")
	}
}
