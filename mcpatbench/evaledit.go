package main

// The evaluate-edit workload: one keep-alive loopback client posting
// seeded /v1/evaluate requests to an in-process serve.Server. About half
// re-send a hot-set config (a full memo hit); the rest are fresh
// one-field edits of a preset or validation target.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/config"
	"mcpat/internal/guard"
	"mcpat/internal/power"
	"mcpat/internal/serve"
)

// editServer is the in-process service and its one client.
type editServer struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
}

func startServer() (*editServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &editServer{
		srv:  serve.New(serve.Config{}),
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + "/v1/evaluate",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the service, stops the listener and waits for it.
func (s *editServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := errors.Join(s.srv.Shutdown(ctx), s.hs.Shutdown(ctx))
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// post sends one request and reads the whole response into buf.
func (s *editServer) post(req request, buf *bytes.Buffer) (int, error) {
	ct := "application/json"
	if req.XML {
		ct = "application/xml"
	}
	resp, err := s.client.Post(s.url, ct, bytes.NewReader(req.Body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// decodeRequest maps a request body to the chip and statistics the
// service evaluates, through the same public parsers it uses.
func decodeRequest(req request) (chip.Config, *chip.Stats, error) {
	if req.XML {
		root, err := config.Parse(bytes.NewReader(req.Body))
		if err != nil {
			return chip.Config{}, nil, err
		}
		cfg, err := config.ToChipConfig(root)
		return cfg, config.ToStats(root), err
	}
	var er serve.EvaluateRequest
	if err := json.Unmarshal(req.Body, &er); err != nil {
		return chip.Config{}, nil, err
	}
	if er.Config == nil {
		return chip.Config{}, nil, fmt.Errorf("request has no config")
	}
	return *er.Config, er.Stats, nil
}

// tdpArea is the checked part of a response.
type tdpArea struct{ tdp, area float64 }

// evaluateInProcess computes what the service must answer: chip.New
// plus Check, with clean guard diagnostics.
func evaluateInProcess(req request) (tdpArea, error) {
	cfg, st, err := decodeRequest(req)
	if err != nil {
		return tdpArea{}, err
	}
	p, err := chip.New(cfg)
	if err != nil {
		return tdpArea{}, err
	}
	rep, ds, err := p.Check(st)
	if err != nil {
		return tdpArea{}, err
	}
	return tdpArea{rep.Peak(), rep.Area * 1e6}, ds.Err()
}

// responseHead reads tdp_w and area_mm2 from an EvaluateResponse body,
// stopping at the report tree, which follows them.
func responseHead(body []byte) (tdpArea, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return tdpArea{}, fmt.Errorf("response is not a JSON object")
	}
	var got tdpArea
	seen := 0
	for seen < 2 && dec.More() {
		t, err := dec.Token()
		if err != nil {
			return tdpArea{}, err
		}
		var v any
		switch t {
		case "tdp_w":
			v = &got.tdp
			seen++
		case "area_mm2":
			v = &got.area
			seen++
		case "report":
			return tdpArea{}, fmt.Errorf("response has no tdp_w/area_mm2 before report")
		default:
			v = new(json.RawMessage)
		}
		if err := dec.Decode(v); err != nil {
			return tdpArea{}, err
		}
	}
	if seen < 2 {
		return tdpArea{}, fmt.Errorf("response lacks tdp_w or area_mm2")
	}
	return got, nil
}

// editRun is the state of an evaluate-edit run after set-up.
type editRun struct {
	srv   *editServer
	hot   []request
	reqs  []reqSpec
	setup setupTimer
}

// start brings up a server and cold-evaluates the hot set through it.
func (er *editRun) start() error {
	var err error
	if er.srv, err = startServer(); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, h := range er.hot {
		status, err := er.srv.post(h, &buf)
		if err != nil {
			return fmt.Errorf("%s: %w", h.Label, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %s", h.Label, status, buf.Bytes())
		}
	}
	return nil
}

// stop closes the server, if one is up.
func (er *editRun) stop() error {
	if er.srv == nil {
		return nil
	}
	err := er.srv.close()
	er.srv = nil
	return err
}

func setupEdit(o options, n int) (*editRun, error) {
	er := &editRun{}
	var err error
	if er.hot, er.reqs, err = editRequests(o.seed, n); err != nil {
		return nil, err
	}
	er.setup = setupTimer{reset: func() {
		if err := er.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "mcpatbench: stop server between set-ups: %v\n", err)
		}
		resetMemo()
	}, run: er.start}
	if err := er.setup.repeat(preSetups); err != nil {
		er.stop()
		return nil, err
	}
	return er, nil
}

// loopEdit times every request, then stops the server and compares each
// served TDP and area with an in-process chip.New plus Check, computed
// once per distinct request after timing.
func loopEdit(er *editRun, out *outcome) loopResult {
	got := make([]tdpArea, len(er.reqs))
	var (
		cur      request
		buildErr error
		buf      bytes.Buffer
		status   int
	)
	out.notes = append(out.notes, "mix "+requestMix(er.reqs))
	lr := timedLoop(len(er.reqs), loopSteps{
		prep: func(i int) { cur, buildErr = er.reqs[i].build(er.hot) },
		op: func(int) (int, error) {
			if buildErr != nil {
				return 0, buildErr
			}
			var err error
			status, err = er.srv.post(cur, &buf)
			return 1, err
		},
		check: func(i int) error {
			if status != http.StatusOK {
				return fmt.Errorf("%s: HTTP %d: %.200s", cur.Label, status, buf.Bytes())
			}
			var err error
			got[i], err = responseHead(buf.Bytes())
			return err
		},
	}, out)
	if err := er.stop(); err != nil {
		out.fail("server shutdown: %v", err)
	}
	want := map[reqSpec]tdpArea{}
	d := newDigest()
	for i, spec := range er.reqs[:len(lr.durs)] {
		d.floats(got[i].tdp, got[i].area)
		if lr.opUnits[i] == 0 {
			continue // already counted as failed
		}
		w, seen := want[spec]
		if !seen {
			r, err := spec.build(er.hot)
			if err == nil {
				w, err = evaluateInProcess(r)
			}
			if err != nil {
				out.fail("request %d (%s): in-process evaluation: %v", i, r.Label, err)
			}
			want[spec] = w
		}
		if math.Float64bits(got[i].tdp) != math.Float64bits(w.tdp) || math.Float64bits(got[i].area) != math.Float64bits(w.area) {
			out.fail("request %d: served TDP/area %v/%v, in-process %v/%v", i, got[i].tdp, got[i].area, w.tdp, w.area)
			lr.ok--
		}
	}
	out.failed = lr.attempted - lr.ok
	out.digest = d.sum()
	return lr
}

func runEvaluateEdit(o options, n int) (*outcome, error) {
	er, err := setupEdit(o, n)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	lr := loopEdit(er, out)
	err = er.setup.repeat(postSetups)
	if err = errors.Join(err, er.stop()); err != nil {
		return nil, err
	}
	tdpErr, areaErr, err := accuracy()
	if err != nil {
		return nil, err
	}
	out.metrics = endToEnd(er.setup.times, lr, "request", tdpErr, areaErr)
	return out, nil
}

// handlerPass serves the first k requests by calling the service's
// handler directly into a recorder, from the state the timed section
// started from, and returns the mean handler time.
func handlerPass(er *editRun, k int, out *outcome) float64 {
	resetMemo()
	srv := serve.New(serve.Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			out.fail("handler pass: shutdown: %v", err)
		}
	}()
	h := srv.Handler()
	serveOne := func(r request) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(r.Body))
		if r.XML {
			req.Header.Set("Content-Type", "application/xml")
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, r := range er.hot {
		serveOne(r)
	}
	l := ledger{}
	for i, spec := range er.reqs[:k] {
		r, err := spec.build(er.hot)
		if err != nil {
			out.fail("handler pass: request %d: %v", i, err)
			continue
		}
		t := time.Now()
		code := serveOne(r)
		l.since("serve.handler", t)
		if code != http.StatusOK {
			out.fail("handler pass: request %d (%s): HTTP %d", i, r.Label, code)
		}
	}
	return l.perCall("serve.handler")
}

// countItems returns the number of nodes in a report tree.
func countItems(it *power.Item) int {
	n := 1
	for _, c := range it.Children {
		n += countItems(c)
	}
	return n
}

// layerPass replays the first k requests as the service's sequence of
// public calls (request decoding, chip.New, ReportE, guard.CheckReport,
// response encoding), timed call by call, from the state the timed
// section started from.
func layerPass(er *editRun, k int, out *outcome, vals map[string]float64) float64 {
	resetMemo()
	for _, r := range er.hot {
		if _, err := evaluateInProcess(r); err != nil {
			out.fail("layer pass: hot %s: %v", r.Label, err)
		}
	}
	l := ledger{}
	var cw countWriter
	items := 0
	before := snapshot()
	for i, spec := range er.reqs[:k] {
		r, err := spec.build(er.hot)
		if err != nil {
			out.fail("layer pass: request %d: %v", i, err)
			continue
		}
		// JSON decoding is the handler's own work and stays unattributed;
		// XML mapping is the config layer's.
		t := time.Now()
		cfg, st, err := decodeRequest(r)
		if r.XML {
			t = l.since("config.xml_to_chip", t)
		} else {
			t = time.Now()
		}
		if err != nil {
			out.fail("layer pass: request %d (%s): %v", i, r.Label, err)
			continue
		}
		proc, err := chip.New(cfg)
		t = l.since("chip.new", t)
		if err != nil {
			out.fail("layer pass: request %d (%s): %v", i, r.Label, err)
			continue
		}
		rep, err := proc.ReportE(st)
		t = l.since("chip.report", t)
		if err != nil {
			out.fail("layer pass: request %d (%s): %v", i, r.Label, err)
			continue
		}
		ds := guard.CheckReport(rep, nil)
		l.since("guard.check", t)
		if err := ds.Err(); err != nil {
			out.fail("layer pass: request %d (%s): %v", i, r.Label, err)
			continue
		}
		resp := &serve.EvaluateResponse{
			Name: cfg.Name, NM: cfg.NM, ClockHz: cfg.ClockHz,
			TDPW: rep.Peak(), AreaMM2: rep.Area * 1e6, Report: rep,
		}
		if rep.RuntimeDynamic > 0 {
			resp.RuntimeW = rep.Runtime()
		}
		t = time.Now()
		enc := json.NewEncoder(&cw)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
		l.since("power.encode", t)
		if err != nil {
			out.fail("layer pass: request %d (%s): encode: %v", i, r.Label, err)
		}
		items += countItems(rep)
	}
	var c counters
	c.addSince(before)
	memoLayers(vals, c, k)
	vals["config.xml_to_chip_us"] = l.perCall("config.xml_to_chip") * 1e6
	vals["chip.new_us_per_call"] = l.perCall("chip.new") * 1e6
	vals["chip.new_calls_per_unit"] = float64(l.calls("chip.new")) / float64(k)
	vals["chip.report_us_per_call"] = l.perCall("chip.report") * 1e6
	vals["chip.report_calls_per_unit"] = float64(l.calls("chip.report")) / float64(k)
	vals["guard.check_us_per_call"] = l.perCall("guard.check") * 1e6
	vals["power.encode_us_per_report"] = l.perCall("power.encode") * 1e6
	vals["power.report_bytes"] = float64(cw.n) / float64(max(l.calls("power.encode"), 1))
	vals["power.items_per_report"] = float64(items) / float64(max(l.calls("power.encode"), 1))
	return l.seconds("config.xml_to_chip", "chip.new", "chip.report", "guard.check", "power.encode") / float64(k)
}

func traceEvaluateEdit(o options, n int) (*outcome, error) {
	er, err := setupEdit(o, n)
	if err != nil {
		return nil, err
	}
	k := tracedOps(n)
	er.reqs = er.reqs[:k]
	out := &outcome{}
	lr := loopEdit(er, out)
	rtt := mean(lr.durs)
	vals := map[string]float64{}
	handler := handlerPass(er, k, out)
	vals["serve.handler_us_per_request"] = handler * 1e6
	vals["serve.transport_us_per_request"] = (rtt - handler) * 1e6
	handlerChildren := layerPass(er, k, out, vals)
	runtimeLayer(vals, lr)
	vals["composition.unattributed_pct"] = unattributedPct(rtt, rtt-handler+handlerChildren)
	out.metrics = perLayer(vals)
	return out, nil
}
