package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/service"
	"github.com/p2psim/collusion/internal/service/httpapi"
)

// newEngine builds the workload's scoring engine.
func newEngine(w workload, g *generator) reputation.Engine {
	if !w.eigenTrust {
		return reputation.Summation{}
	}
	et := reputation.NewEigenTrust(g.pretrusted)
	et.Epsilon = 1e-4
	et.Workers = 1
	return et
}

// newStore builds the workload's store with the default thresholds and
// the Optimized detector. With a tracer, the traced run's instruments are
// wired in from outside the program: a timing engine and detector around
// the real ones, their counters in the tracer's registry, and a span
// tracer whose observer times the store's ingest and window.roll spans.
func newStore(w workload, g *generator, t *tracer) (*service.Store, error) {
	det := core.NewOptimized(core.DefaultThresholds())
	cfg := service.Config{
		Nodes:        w.nodes,
		Engine:       newEngine(w, g),
		Detector:     det,
		IngestShards: w.ingestShards,
		WindowCycles: w.windowCycles,
	}
	if t != nil {
		det.Obs, cfg.Obs = t.reg, t.reg
		cfg.Engine = timedEngine{cfg.Engine, t}
		cfg.Detector = timedDetector{det, t, t.reg.Counter("detect.incremental_hits"), t.reg.Counter("detect.incremental_misses")}
		cfg.Spans = obs.NewSpanTracer(obs.NewWriterSink(io.Discard), nil)
		cfg.Spans.Observer = t
	}
	return service.New(cfg)
}

// preload applies the set-up history, one epoch per chunk.
func preload(s *service.Store, chunks [][]ingest.Rating) error {
	for c, chunk := range chunks {
		if _, err := s.Apply(chunk); err != nil {
			return fmt.Errorf("preload chunk %d: %w", c, err)
		}
	}
	return nil
}

// server is a store behind the HTTP API on a loopback listener.
type server struct {
	store  *service.Store
	srv    *http.Server
	url    string
	served chan error
}

// listen serves store's /v1/ API on an ephemeral loopback port.
func listen(store *service.Store) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		store:  store,
		srv:    &http.Server{Handler: httpapi.New(store, nil)},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for Serve to return and stops the
// store.
func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.store.Close()
	return err
}

// setUp builds the store, preloads the history and starts the listener,
// returning once a GET /v1/epoch is answered: the set-up the setup_s
// metric times.
func setUp(w workload, g *generator, chunks [][]ingest.Rating) (*server, time.Duration, error) {
	start := time.Now()
	store, err := newStore(w, g, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := preload(store, chunks); err != nil {
		store.Close()
		return nil, 0, err
	}
	s, err := listen(store)
	if err != nil {
		store.Close()
		return nil, 0, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	var ep epochDoc
	if err := getJSON(c, s.url+"/v1/epoch", &ep); err != nil {
		_ = s.close()
		return nil, 0, err
	}
	d := time.Since(start)
	if ep.Epoch != int64(len(chunks)) {
		_ = s.close()
		return nil, 0, fmt.Errorf("after preload: epoch %d, want %d", ep.Epoch, len(chunks))
	}
	return s, d, nil
}

// newClient returns a client holding at most conns keep-alive
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// do sends req and returns the whole body of a 200 reply.
func do(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading reply: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func get(c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(c, req)
}

// discard GETs url and drops the body of a 200 reply unread into memory:
// the query client checks status only.
func discard(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("GET %s: reading reply: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

func getJSON(c *http.Client, url string, v any) error {
	body, err := get(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// post sends one ingest body and returns the epoch the reply names,
// checking that the whole batch was accepted.
func post(c *http.Client, url string, body []byte, ratings int) (int64, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/ratings", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	reply, err := do(c, req)
	if err != nil {
		return 0, err
	}
	var r struct {
		Epoch    int64 `json:"epoch"`
		Accepted int   `json:"accepted"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		return 0, fmt.Errorf("ingest reply: %w", err)
	}
	if r.Accepted != ratings {
		return 0, fmt.Errorf("ingest reply accepted %d of %d ratings", r.Accepted, ratings)
	}
	return r.Epoch, nil
}

// epochDoc is the /v1/epoch response.
type epochDoc struct {
	Epoch   int64 `json:"epoch"`
	Ratings int64 `json:"ratings"`
}

// flaggedDoc is the part of the /v1/flagged document the check reads.
type flaggedDoc struct {
	Flagged []struct {
		Node  int32 `json:"node"`
		First int64 `json:"first"`
	} `json:"flagged"`
	Pairs []struct {
		I int32 `json:"i"`
		J int32 `json:"j"`
	} `json:"pairs"`
}

// checkOutputs is the output check every timed run passes, after timed
// batches on top of the preload: the epoch watermark equals the epochs
// applied, the rating count the ratings sent, the flagged pairs the
// planted pairs active so far, and each colluder's first-detection epoch
// the epoch of its pair's first activation — within the preload for the
// preload pairs, exactly for the late ones. The late pairs are first
// active in the timed run, so a detection pass that misses new evidence
// fails the check.
func checkOutputs(g *generator, ep epochDoc, epochs, ratings int64, timed int, flagged []byte) error {
	if ep.Epoch != epochs {
		return fmt.Errorf("epoch watermark %d, want %d", ep.Epoch, epochs)
	}
	if ep.Ratings != ratings {
		return fmt.Errorf("served %d ratings, want %d", ep.Ratings, ratings)
	}
	var d flaggedDoc
	if err := json.Unmarshal(flagged, &d); err != nil {
		return fmt.Errorf("flagged document: %w", err)
	}
	want := g.expected(timed)
	if len(d.Pairs) != len(want) || len(d.Flagged) != 2*len(want) {
		return fmt.Errorf("flagged %d pairs and %d nodes, want %d and %d", len(d.Pairs), len(d.Flagged), len(want), 2*len(want))
	}
	first := make(map[int32]int64, len(d.Flagged))
	for _, f := range d.Flagged {
		first[f.Node] = f.First
	}
	pre := int64(g.w.preloadEpochs())
	for k, p := range d.Pairs {
		w := want[k]
		if [2]int32{p.I, p.J} != w.pair {
			return fmt.Errorf("flagged pair %d is (%d, %d), planted %v", k, p.I, p.J, w.pair)
		}
		for _, node := range w.pair {
			f, ok := first[node]
			switch {
			case !ok:
				return fmt.Errorf("colluder %d of pair %v not flagged", node, w.pair)
			case w.first == 0 && (f < 1 || f > pre):
				return fmt.Errorf("colluder %d first flagged in epoch %d, want within the %d preload epochs", node, f, pre)
			case w.first != 0 && f != w.first:
				return fmt.Errorf("late colluder %d first flagged in epoch %d, want %d", node, f, w.first)
			}
		}
	}
	return nil
}
