package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"vdcpower/internal/serve"
	"vdcpower/internal/stats"
	"vdcpower/internal/testbed"
)

const (
	// serveTick is the stepper's period: a control period every 4 ms of
	// wall time keeps the step lock busy about half the time.
	serveTick = 4 * time.Millisecond
	// serveSLO is the request latency limit, measured from the due time.
	serveSLO = 20 * time.Millisecond
	// serveSetups is how many times the server is built to time set-up;
	// the last one serves the session.
	serveSetups = 9
	// periodsPerRun scales per-step figures to the Fig. 3 horizon (1800 s
	// simulated at the default 4 s period), so run_s and alloc_mb compare
	// with testbed-surge's.
	periodsPerRun = 450
	// historyCap is how many period records serve.Server keeps.
	historyCap = 2048
	// warmupSteps are stepped back to back, without load, before the
	// session. serve.New's tracer keeps telemetry.DefaultTrackCapacity
	// (16384) spans per track, and the arbitrate track records one span
	// per server (4) per step, so by 4096 steps the per-step span rings
	// are full and the live heap stops growing. Measuring before that
	// point would time a server whose GC cost still rises step by step.
	warmupSteps = 4200
	// tailWindow is the number of consecutive steps (1.2 s of the
	// session) each tail-percentile window holds; see windowed.
	tailWindow = 300
)

// The request mix is the server's own clients'. The dashboard page
// (dashboard.go) polls once a second, fetching /status, /history?n=200,
// /scorecard and /timings in that order; one such page is open.
// A Prometheus job scrapes /metrics every scrapeEvery, and an operator
// writes one application's set point every setpointEvery. Each source is
// periodic from a seeded phase, so a session's request count depends on
// its length alone.
const (
	dashboards      = 1
	dashboardTick   = time.Second
	dashboardWindow = 200 // the n the dashboard asks /history for
	scrapeEvery     = time.Second
	setpointEvery   = 5 * time.Second
)

// Routes of the mix. The first four are one dashboard tick, in its order.
const (
	routeStatus = iota
	routeHistory
	routeScorecard
	routeTimings
	routeMetrics
	routeSetpoint
	numRoutes
)

var routeNames = [numRoutes]string{"status", "history", "scorecard", "timings", "metrics", "setpoint"}

// planned is one request of the session's schedule.
type planned struct {
	due   time.Duration // from the session's start
	route int
	req   *http.Request
}

// request is one issued request's timing.
type request struct {
	route   int
	late    time.Duration // issue time minus due time
	latency time.Duration // completion time minus due time
	handler time.Duration // time inside the handler
	bytes   int
	ok      bool // 2xx with a decodable body
}

// session is one serve-live measurement window.
type session struct {
	steps    []time.Duration
	stepErrs int
	reqs     []request
}

// buildServer composes cmd/serve's default server: the default testbed
// (identification included) behind serve.New, which attaches the
// telemetry registry, the obs scorecard and the guard watchdog. Like
// cmd/serve it keeps the testbed's default seed; the workload seed drives
// the request stream.
func buildServer() (*serve.Server, testbed.Config, time.Duration, error) {
	cfg := testbed.DefaultConfig()
	t0 := time.Now()
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, cfg, 0, err
	}
	s := serve.New(tb)
	return s, cfg, time.Since(t0), nil
}

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// validBody checks a response body: JSON for every route but /metrics,
// which must be a Prometheus exposition of the server's families.
func validBody(route int, body []byte) bool {
	if route == routeMetrics {
		return bytes.Contains(body, []byte("# TYPE vdcpower_"))
	}
	return json.Valid(body)
}

// planSession lays out every request of a session of the given length,
// in due order, before it starts, so the measured region holds the
// server's work and not the generator's. The set-point writes re-assert
// the configured set point: they take the same write path and lock as
// any other value, but leave the simulated trajectory independent of
// when they land.
func planSession(seed int64, length time.Duration, nApps int, setpoint float64) []planned {
	rng := rand.New(rand.NewSource(seed))
	var plan []planned
	add := func(due time.Duration, route int, method, target string) {
		plan = append(plan, planned{due: due, route: route, req: httptest.NewRequest(method, target, nil)})
	}
	phase := func(period time.Duration) time.Duration { return time.Duration(rng.Int63n(int64(period))) }
	for d := 0; d < dashboards; d++ {
		for due := phase(dashboardTick); due < length; due += dashboardTick {
			add(due, routeStatus, http.MethodGet, "/status")
			add(due, routeHistory, http.MethodGet, "/history?n="+strconv.Itoa(dashboardWindow))
			add(due, routeScorecard, http.MethodGet, "/scorecard")
			add(due, routeTimings, http.MethodGet, "/timings")
		}
	}
	for due := phase(scrapeEvery); due < length; due += scrapeEvery {
		add(due, routeMetrics, http.MethodGet, "/metrics")
	}
	sp := strconv.FormatFloat(setpoint, 'f', -1, 64)
	for due := phase(setpointEvery); due < length; due += setpointEvery {
		add(due, routeSetpoint, http.MethodPost, fmt.Sprintf("/setpoint?app=%d&seconds=%s", rng.Intn(nApps), sp))
	}
	// Stable, so a dashboard's tick keeps its order.
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].due < plan[j].due })
	return plan
}

// runSession steps s on a fixed tick from one goroutine while a second
// sends the planned requests through its handler, each at its due time.
// A request due while the sender is still busy goes out late, and its
// latency counts from the due time.
func runSession(s *serve.Server, plan []planned, length time.Duration, seed int64, res *result) *session {
	ss := &session{
		steps: make([]time.Duration, 0, int(length/serveTick)+1),
		reqs:  make([]request, 0, len(plan)),
	}
	h := s.Handler()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for due := time.Duration(0); due < length; due += serveTick {
			sleepUntil(start.Add(due))
			t := time.Now()
			err := s.Step()
			ss.steps = append(ss.steps, time.Since(t))
			if err != nil {
				ss.stepErrs++
			}
		}
	}()
	var bad []string
	go func() {
		defer wg.Done()
		for _, p := range plan {
			due := start.Add(p.due)
			sleepUntil(due)
			issued := time.Now()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, p.req)
			done := time.Now()
			ok := rec.Code/100 == 2 && validBody(p.route, rec.Body.Bytes())
			ss.reqs = append(ss.reqs, request{
				route: p.route, late: issued.Sub(due), latency: done.Sub(due),
				handler: done.Sub(issued), bytes: rec.Body.Len(), ok: ok,
			})
			if !ok {
				bad = append(bad, fmt.Sprintf("seed %d: %s %s: HTTP %d or undecodable body", seed, p.req.Method, p.req.URL, rec.Code))
			}
		}
	}()
	wg.Wait()
	res.tally(len(ss.reqs), bad)
	stepFails := make([]string, ss.stepErrs)
	for i := range stepFails {
		stepFails[i] = fmt.Sprintf("seed %d: Server.Step failed", seed)
	}
	res.tally(len(ss.steps), stepFails)
	return ss
}

// history reads the server's recent period records through its handler.
func history(h http.Handler, n int) ([]testbed.PeriodRecord, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/history?n="+strconv.Itoa(n), nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /history: HTTP %d", rec.Code)
	}
	var recs []testbed.PeriodRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &recs); err != nil {
		return nil, fmt.Errorf("GET /history: %w", err)
	}
	return recs, nil
}

func runServe(rn *run, res *result) error {
	var setup []float64
	var s *serve.Server
	var cfg testbed.Config
	for i := 0; i < serveSetups; i++ {
		// Each build starts from a collected heap, with no earlier server
		// live, so its time does not depend on where a GC cycle falls.
		runtime.GC()
		srv, c, d, err := buildServer()
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
		s, cfg = srv, c
	}
	for i := 0; i < warmupSteps; i++ {
		if err := s.Step(); err != nil {
			return fmt.Errorf("warm-up step %d: %w", i, err)
		}
	}
	// Simulated power comes from the warm-up's last historyCap periods:
	// the same steps on every run, whatever the session's length.
	recs, err := history(s.Handler(), historyCap)
	if err != nil {
		return err
	}
	power := make([]float64, len(recs))
	for k, r := range recs {
		power[k] = r.PowerW
	}

	// The session takes what is left of the budget in whole seconds, and
	// at least one. A whole number of dashboard ticks and scrapes then
	// falls into it whatever their phases, so the request count per step
	// is the same on every run.
	length := max(time.Until(rn.started.Add(rn.budget)).Truncate(time.Second), time.Second)
	plan := planSession(rn.seed, length, cfg.NumApps, cfg.Setpoint)
	mem := startMem()
	ss := runSession(s, plan, length, rn.seed, res)
	use := mem.stop()
	if len(ss.steps) == 0 || len(ss.reqs) == 0 {
		return fmt.Errorf("session too short: %d steps, %d requests", len(ss.steps), len(ss.reqs))
	}

	recs, err = history(s.Handler(), warmupSteps+len(ss.steps))
	res.check(err == nil, "seed %d: %v", rn.seed, err)
	res.check(len(recs) == min(warmupSteps+len(ss.steps), historyCap), "seed %d: /history has %d records after %d steps",
		rn.seed, len(recs), warmupSteps+len(ss.steps))

	steps := msAll(ss.steps)
	var stepSum time.Duration
	for _, d := range ss.steps {
		stepSum += d
	}
	var lat, late []float64
	var byRoute [numRoutes][]float64
	var metricsBytes []float64
	miss := 0
	for _, r := range ss.reqs {
		lat = append(lat, ms(r.latency))
		late = append(late, ms(r.late))
		byRoute[r.route] = append(byRoute[r.route], r.handler.Seconds())
		if r.route == routeMetrics {
			metricsBytes = append(metricsBytes, float64(r.bytes))
		}
		if !r.ok || r.latency > serveSLO {
			miss++
		}
	}
	scale := float64(periodsPerRun) / float64(len(ss.steps))
	missFrac := float64(miss) / float64(len(ss.reqs))
	if rn.traced {
		got := map[string]float64{
			"serve.step_s":            median(steps) / 1000,
			"telemetry.metrics_bytes": median(metricsBytes),
			"loadgen.late_ms":         p99(late),
			"loadgen.http_p50_ms":     median(lat),
			"loadgen.http_p99_ms":     p99(lat),
			"loadgen.slo_miss_frac":   missFrac,
			"runtime.gc_cycles":       use.gcCycles * scale,
			"runtime.gc_pause_s":      use.gcPauseS * scale,
			"runtime.mallocs":         use.mallocs * scale,
		}
		for i, name := range routeNames {
			got["serve.route_"+name+"_s"] = median(byRoute[i])
		}
		reportLayers(res, got)
	} else {
		res.set("setup_s", median(setup), "s")
		res.set("run_s", stepSum.Seconds()*scale, "s")
		res.set("step_p50_ms", median(steps), "ms")
		res.note("step_p90_ms", windowed(steps, tailWindow, 90), "ms")
		res.note("step_p99_ms", windowed(steps, tailWindow, 99), "ms")
		res.set("alloc_mb", use.allocMB*scale, "MB")
		res.set("peak_rss_mb", peakRSSMB(), "MB")
		res.set("power_mean_w", stats.Mean(power), "W")
	}
	res.note("http_p50_ms", median(lat), "ms")
	res.note("http_p99_ms", p99(lat), "ms")
	res.note("http_slo_miss_frac", missFrac, "frac")
	res.note("loadgen_late_p99_ms", p99(late), "ms")
	res.note("requests", float64(len(ss.reqs)), "count")
	res.note("step_samples", float64(len(ss.steps)), "count")
	return nil
}
