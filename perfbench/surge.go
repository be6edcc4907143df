package main

import (
	"fmt"
	"math"
	"time"

	"vdcpower/internal/appsim"
	"vdcpower/internal/cluster"
	"vdcpower/internal/devs"
	"vdcpower/internal/mpc"
	"vdcpower/internal/stats"
	"vdcpower/internal/testbed"
)

// Fig. 3's workload step, as testbed.Fig3 applies it.
const (
	surgeApp   = 4 // App5
	surgeStart = 600.0
	surgeEnd   = 1200.0
	surgeTotal = 1800.0

	// trackBand is the largest distance between an application's
	// post-settle mean T90 and its set point that the figure tests
	// accept (TestFig2AllAppsNearSetpoint, TestFig4/5).
	trackBand = 0.4

	// surgeInputs is how many distinct seeds a run covers. A traced
	// iteration (reference run plus hand-stepped run) takes about 2.5 s
	// on the reference machine, so all of them fit in a 30 s budget.
	surgeInputs = 10
)

func surgeConfig(seed int64) testbed.Config {
	cfg := testbed.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// surgeHook doubles app's clients from surgeStart to surgeEnd, exactly as
// testbed.Fig3 does.
func surgeHook(app *appsim.App, base int) func(int, float64) {
	return func(_ int, now float64) {
		switch {
		case now >= surgeStart && now < surgeEnd && app.Concurrency() == base:
			app.SetConcurrency(2 * base)
		case now >= surgeEnd && app.Concurrency() != base:
			app.SetConcurrency(base)
		}
	}
}

// surgeRun is one untraced Fig. 3 iteration.
type surgeRun struct {
	tb      *testbed.Testbed
	setup   time.Duration
	loop    time.Duration
	periods []time.Duration // wall time of each control period
	recs    []testbed.PeriodRecord
}

// runSurgeOnce builds the testbed and runs Fig. 3 through testbed.Run,
// timing each period from the per-period hook.
func runSurgeOnce(seed int64) (*surgeRun, error) {
	cfg := surgeConfig(seed)
	t0 := time.Now()
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, err
	}
	sr := &surgeRun{tb: tb, setup: time.Since(t0)}
	hook := surgeHook(tb.Apps[surgeApp], cfg.Concurrency)
	n := int(surgeTotal / cfg.Period)
	marks := make([]time.Time, 0, n+1)
	start := time.Now()
	sr.recs, err = tb.Run(surgeTotal, func(k int, now float64) {
		marks = append(marks, time.Now())
		hook(k, now)
	})
	end := time.Now()
	sr.loop = end.Sub(start)
	if err != nil {
		return nil, fmt.Errorf("testbed.Run: %w", err)
	}
	marks = append(marks, end)
	for i := 1; i < len(marks); i++ {
		sr.periods = append(sr.periods, marks[i].Sub(marks[i-1]))
	}
	return sr, nil
}

// surgeOutcome is the simulated result of one run: the figure's checks
// and the quality metrics derived from its records.
type surgeOutcome struct {
	powerMeanW float64
	trackErrS  float64
}

// checkSurge applies the figure tests' band to every application and
// derives the run's quality metrics.
func checkSurge(res *result, cfg testbed.Config, recs []testbed.PeriodRecord, nApps int) surgeOutcome {
	want := int(surgeTotal / cfg.Period)
	res.check(len(recs) == want, "seed %d: %d period records, want %d", cfg.Seed, len(recs), want)
	var out surgeOutcome
	power := make([]float64, len(recs))
	for k, r := range recs {
		power[k] = r.PowerW
	}
	out.powerMeanW = stats.Mean(power)
	settle := int(testbed.DefaultSettleSec / cfg.Period)
	if len(recs) <= settle {
		return out
	}
	var errSum float64
	var errN int
	for i := 0; i < nApps; i++ {
		xs := make([]float64, 0, len(recs)-settle)
		for _, r := range recs[settle:] {
			xs = append(xs, r.T90[i])
			errSum += math.Abs(r.T90[i] - cfg.Setpoint)
			errN++
		}
		m := stats.Mean(xs)
		res.check(math.Abs(m-cfg.Setpoint) <= trackBand,
			"seed %d: App%d post-settle mean T90 %.3fs outside %.1f±%.1fs", cfg.Seed, i+1, m, cfg.Setpoint, trackBand)
	}
	out.trackErrS = errSum / float64(errN)
	return out
}

// checkSurgeInput checks iteration i's records. The first run of each
// input gets the figure checks and yields the simulated results (ok is
// true); a repeat must reproduce that first run's records bit for bit.
func checkSurgeInput(res *result, i int, first [][]testbed.PeriodRecord, tb *testbed.Testbed,
	recs []testbed.PeriodRecord) (surgeOutcome, bool) {
	if i < len(first) {
		first[i] = recs
		return checkSurge(res, tb.Cfg, recs, len(tb.Apps)), true
	}
	res.check(sameRecords(recs, first[i%len(first)]),
		"seed %d: repeat run's period records differ from the first run's", tb.Cfg.Seed)
	return surgeOutcome{}, false
}

func runSurge(rn *run, res *result) error {
	if rn.traced {
		return runSurgeTraced(rn, res)
	}
	var setup, loop, alloc, power, track, p50s, p90s, p99s []float64
	first := make([][]testbed.PeriodRecord, surgeInputs)
	for i := 0; rn.more(i, surgeInputs); i++ {
		seed := subSeed(rn.seed, i, surgeInputs)
		mem := startMem()
		sr, err := runSurgeOnce(seed)
		if err != nil {
			return err
		}
		use := mem.stop()
		if out, ok := checkSurgeInput(res, i, first, sr.tb, sr.recs); ok {
			power = append(power, out.powerMeanW)
			track = append(track, out.trackErrS*1000)
		}
		setup = append(setup, sr.setup.Seconds())
		loop = append(loop, sr.loop.Seconds())
		alloc = append(alloc, use.allocMB)
		p50s = append(p50s, median(msAll(sr.periods)))
		p90s = append(p90s, p90(msAll(sr.periods)))
		p99s = append(p99s, p99(msAll(sr.periods)))
	}
	res.set("setup_s", median(setup), "s")
	res.set("run_s", median(loop), "s")
	res.set("step_p50_ms", median(p50s), "ms")
	res.note("step_p90_ms", median(p90s), "ms")
	res.note("step_p99_ms", median(p99s), "ms")
	res.set("alloc_mb", median(alloc), "MB")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	// Mean power per seed falls into two clusters about 80 W apart (the
	// identified models differ), so the mean over the inputs varies less
	// from run seed to run seed than their median. Tracking error has rare
	// outliers of seconds (see README.md), so it takes the median.
	res.set("power_mean_w", stats.Mean(power), "W")
	res.note("track_err_ms", median(track), "ms")
	res.note("iterations", float64(len(setup)), "count")
	return nil
}

// surgeLayers is the per-layer account of one traced Fig. 3 iteration.
type surgeLayers struct {
	newS, drainS, controlS, arbitrateS float64
	events, maxSameTime, completed     int
	arbitrateCalls                     int
	solve                              mpc.SolveStats
	e2eS                               float64
}

// driveSurge builds the testbed and steps Fig. 3 through the exported
// kernel, controller and arbitrator calls that testbed.Run makes, timing
// each layer. It returns the records testbed.Run would have returned.
func driveSurge(cfg testbed.Config) ([]testbed.PeriodRecord, surgeLayers, error) {
	var ly surgeLayers
	e2e := time.Now()
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, ly, err
	}
	ly.newS = time.Since(e2e).Seconds()
	appIdx := make(map[string]int, len(tb.Apps))
	for i, a := range tb.Apps {
		appIdx[a.Name] = i
	}
	vms := make([][]*cluster.VM, len(tb.Apps))
	byID := make(map[string][2]int)
	for _, s := range tb.DC.Servers {
		for _, vm := range s.VMs() {
			i, ok := appIdx[vm.App]
			if !ok {
				return nil, ly, fmt.Errorf("VM %s belongs to unknown app %q", vm.ID, vm.App)
			}
			for len(vms[i]) <= vm.Tier {
				vms[i] = append(vms[i], nil)
			}
			vms[i][vm.Tier] = vm
			byID[vm.ID] = [2]int{i, vm.Tier}
		}
	}
	completed0 := 0
	for _, a := range tb.Apps {
		completed0 += a.Completed()
	}
	hook := surgeHook(tb.Apps[surgeApp], cfg.Concurrency)
	periods := int(surgeTotal / cfg.Period)
	recs := make([]testbed.PeriodRecord, 0, periods)
	t0 := tb.Sim.Now()
	for k := 0; k < periods; k++ {
		hook(k, tb.Sim.Now()-t0)
		t := time.Now()
		st, err := tb.Sim.RunUntilBudget(tb.Sim.Now()+cfg.Period, devs.Budget{})
		ly.drainS += time.Since(t).Seconds()
		if err != nil {
			return nil, ly, err
		}
		ly.events += st.Events
		ly.maxSameTime = max(ly.maxSameTime, st.SameTime)
		rec := testbed.PeriodRecord{Time: tb.Sim.Now() - t0, T90: make([]float64, len(tb.Apps))}
		for i, ctl := range tb.Controllers {
			t := time.Now()
			r, err := ctl.Step()
			ly.controlS += time.Since(t).Seconds()
			if err != nil {
				return nil, ly, err
			}
			rec.T90[i] = r.T90
			if r.TerminalRelaxed {
				rec.Relaxed++
			}
			for j, d := range ctl.Demands() {
				vms[i][j].Demand = d
			}
		}
		for _, arb := range tb.Arbitrators {
			if arb.Server.State() != cluster.Active {
				continue
			}
			t := time.Now()
			grants, _ := arb.Arbitrate()
			ly.arbitrateS += time.Since(t).Seconds()
			ly.arbitrateCalls++
			for _, g := range grants {
				if idx, ok := byID[g.VMID]; ok {
					tb.Apps[idx[0]].Tier(idx[1]).SetCapacity(g.Granted)
				}
			}
		}
		rec.PowerW = tb.DC.TotalPower()
		recs = append(recs, rec)
	}
	ly.e2eS = time.Since(e2e).Seconds()
	for _, a := range tb.Apps {
		ly.completed += a.Completed()
	}
	ly.completed -= completed0
	for _, ctl := range tb.Controllers {
		ly.solve.Add(ctl.SolveStats())
	}
	return recs, ly, nil
}

// sameRecords reports whether two record slices are bit-for-bit equal.
func sameRecords(a, b []testbed.PeriodRecord) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for k := range a {
		if !same(a[k].Time, b[k].Time) || !same(a[k].PowerW, b[k].PowerW) ||
			a[k].Relaxed != b[k].Relaxed || len(a[k].T90) != len(b[k].T90) {
			return false
		}
		for i := range a[k].T90 {
			if !same(a[k].T90[i], b[k].T90[i]) {
				return false
			}
		}
	}
	return true
}

func runSurgeTraced(rn *run, res *result) error {
	series := map[string][]float64{}
	add := func(k string, v float64) { series[k] = append(series[k], v) }
	first := make([][]testbed.PeriodRecord, surgeInputs)
	for i := 0; rn.more(i, surgeInputs); i++ {
		seed := subSeed(rn.seed, i, surgeInputs)
		ref, err := runSurgeOnce(seed)
		if err != nil {
			return err
		}
		mem := startMem()
		recs, ly, err := driveSurge(surgeConfig(seed))
		if err != nil {
			return err
		}
		use := mem.stop()
		res.check(sameRecords(recs, ref.recs), "seed %d: traced driver's period records differ from testbed.Run's", seed)
		checkSurgeInput(res, i, first, ref.tb, ref.recs)
		loopS := ly.e2eS - ly.newS
		add("testbed.new_s", ly.newS)
		add("devs.drain_s", ly.drainS)
		add("devs.events", float64(ly.events))
		add("devs.ns_per_event", ly.drainS*1e9/float64(ly.events))
		add("devs.max_same_time", float64(ly.maxSameTime))
		add("appsim.completed", float64(ly.completed))
		add("appsim.completions_per_event", float64(ly.completed)/float64(ly.events))
		add("core.control_s", ly.controlS)
		add("mpc.solves", float64(ly.solve.Solves))
		add("mpc.warm_hit_frac", float64(ly.solve.WarmAttempts-ly.solve.ColdRetries)/float64(ly.solve.Solves))
		add("mpc.relaxations", float64(ly.solve.Relaxations))
		add("mpc.fallbacks", float64(ly.solve.Fallbacks))
		add("core.arbitrate_s", ly.arbitrateS)
		add("core.arbitrate_calls", float64(ly.arbitrateCalls))
		add("runtime.gc_cycles", use.gcCycles)
		add("runtime.gc_pause_s", use.gcPauseS)
		add("runtime.mallocs", use.mallocs)
		add("trace.coverage_frac", (ly.newS+ly.drainS+ly.controlS+ly.arbitrateS)/ly.e2eS)
		add("trace.overhead_frac", loopS/ref.loop.Seconds()-1)
	}
	reportLayers(res, mediansOf(series))
	return nil
}
