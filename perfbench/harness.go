package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/replog"
	"repro/internal/router"
	"repro/internal/service"
)

// node is one HTTP listener on loopback serving a handler in-process.
type node struct {
	url string
	srv *http.Server
	ln  net.Listener
	out chan struct{}
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{url: "http://" + ln.Addr().String(), ln: ln, out: make(chan struct{}),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		defer close(n.out)
		n.srv.Serve(ln)
	}()
	return n, nil
}

// close stops the listener and waits for its serve loop to end.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n.srv.Shutdown(ctx) != nil {
		n.srv.Close()
	}
	<-n.out
}

// daemon is a reform daemon (leader or follower) behind a loopback
// listener.
type daemon struct {
	s *service.Server
	n *node
}

// daemonConfig is the daemon's configuration for every benchmark
// node: no tickers, so maintenance runs only when the client asks.
func daemonConfig(join []string) service.Config {
	return service.Config{Join: join}
}

func startDaemon(join []string) (*daemon, error) {
	s := service.New(daemonConfig(join))
	n, err := listen(s.Handler())
	if err != nil {
		return nil, err
	}
	s.Start()
	return &daemon{s: s, n: n}, nil
}

func (d *daemon) stop() {
	d.s.BeginShutdown()
	d.n.close()
	d.s.Shutdown()
}

// replica is an in-process router following the leader over loopback.
type replica struct {
	rt *router.Router
	n  *node
}

func startRouter(upstream string) (*replica, error) {
	rt := router.New(router.Config{
		Upstream:    upstream,
		PollTimeout: 20 * time.Second,
		RetryAfter:  50 * time.Millisecond,
	})
	n, err := listen(rt.Handler())
	if err != nil {
		return nil, err
	}
	rt.Start()
	return &replica{rt: rt, n: n}, nil
}

func (r *replica) stop() {
	r.rt.Shutdown()
	r.n.close()
}

// client drives one target over one keep-alive connection.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns status and body.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// want sends a request that must answer with the given status.
func (c *client) want(status int, method, url string, body []byte) ([]byte, error) {
	got, out, err := c.do(method, url, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if got != status {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, url, got, status, bytes.TrimSpace(out))
	}
	return out, nil
}

// getJSON fetches url into dst.
func (c *client) getJSON(url string, dst any) error {
	out, err := c.want(http.StatusOK, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, dst)
}

// daemonStats is the part of GET /v1/stats the benchmark reads.
type daemonStats struct {
	Peers          int     `json:"peers"`
	Clusters       int     `json:"clusters"`
	SCost          float64 `json:"scost"`
	ViewSeq        uint64  `json:"view_seq"`
	PopVersion     uint64  `json:"pop_version"`
	PublishedViews int64   `json:"published_views"`
	WatchFull      int64   `json:"watch_full"`
	WatchDelta     int64   `json:"watch_delta"`
	RouteCache     struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"route_cache"`
	Maintenance struct {
		Scanned       int64 `json:"scanned"`
		SkippedClean  int64 `json:"skipped_clean"`
		ShortlistHits int64 `json:"shortlist_hits"`
		FullScans     int64 `json:"full_scans"`
	} `json:"maintenance"`
	Replication struct {
		Epoch   string `json:"epoch"`
		LogLast uint64 `json:"log_last"`
		Synced  bool   `json:"synced"`
	} `json:"replication"`
	MutationLock struct {
		Holds  int64   `json:"holds"`
		MeanUs float64 `json:"mean_us"`
	} `json:"mutation_lock"`
}

func (c *client) stats(base string) (daemonStats, error) {
	var st daemonStats
	err := c.getJSON(base+"/v1/stats", &st)
	return st, err
}

// logWaiter follows a daemon's own mutation-log feed to learn how far
// its log has come, parking on the feed's long-poll instead of polling.
type logWaiter struct {
	c     *client
	base  string
	epoch string
	// have is the newest log index the feed has shown.
	have uint64
}

// await blocks until the daemon's log holds index. Each request asks
// for the entries after the newest index already seen, which the
// daemon holds, so the feed answers with entries or parks until the
// next append; it never falls back to a snapshot.
func (w *logWaiter) await(index uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for w.have < index {
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("await log %d: timed out at %d", index, w.have)
		}
		url := w.base + "/v1/replog/watch?from=" + strconv.FormatUint(w.have, 10) +
			"&epoch=" + w.epoch + "&timeout_ms=" + strconv.FormatInt(left.Milliseconds()+1, 10)
		code, body, err := w.c.do(http.MethodGet, url, nil)
		if err != nil {
			return fmt.Errorf("await log %d: %w", index, err)
		}
		switch code {
		case http.StatusNoContent:
			continue
		case http.StatusOK:
		default:
			return fmt.Errorf("await log %d: status %d", index, code)
		}
		rec, err := replog.DecodeRecord(body)
		if err != nil {
			return fmt.Errorf("await log %d: %w", index, err)
		}
		if rec.Kind != replog.RecEntries || len(rec.Entries) == 0 {
			return fmt.Errorf("await log %d: feed answered record kind %d, not entries", index, rec.Kind)
		}
		w.have = rec.Entries[len(rec.Entries)-1].Index
	}
	return nil
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
