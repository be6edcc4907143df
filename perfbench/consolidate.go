package main

import (
	"fmt"
	"reflect"
	"time"

	"vdcpower/internal/cluster"
	"vdcpower/internal/dcsim"
	"vdcpower/internal/fault"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/stats"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/workload"
)

// dcVMs is the data-center size of dc-consolidate: the paper's largest
// Fig. 6 point, the full trace of workload.DefaultGenConfig.
const dcVMs = 5415

// dcInputs is how many distinct seeds a run covers. A traced iteration
// (timed runs plus bare reference runs) takes 8-11 s on the reference
// machine, so the three about fill a 30 s budget.
const dcInputs = 3

// dcPolicies are run in this order on the same trace: IPAC, then the
// pMapper baseline it is compared against.
var dcPolicies = []func() optimizer.Consolidator{
	func() optimizer.Consolidator { return optimizer.NewIPAC() },
	func() optimizer.Consolidator { return optimizer.NewPMapper() },
}

// generateTrace synthesizes the paper's 7-day, 15-minute trace.
func generateTrace(seed int64) (*workload.Trace, error) {
	gc := workload.DefaultGenConfig()
	gc.NumVMs = dcVMs
	gc.Seed = seed
	return workload.Generate(gc)
}

// dcConfig is Section VI-B's configuration over tr with cons, checking
// the final data center's invariants through OnDone.
func dcConfig(tr *workload.Trace, seed int64, cons optimizer.Consolidator, invErr *error) dcsim.Config {
	cfg := dcsim.DefaultConfig(tr, dcVMs, cons)
	cfg.Seed = seed
	*invErr = fmt.Errorf("OnDone never ran")
	cfg.OnDone = func(dc *cluster.DataCenter) { *invErr = dc.CheckInvariants() }
	return cfg
}

// checkPolicies checks one IPAC/pMapper pair: both runs succeeded with
// intact invariants and IPAC used less energy per VM.
func checkPolicies(res *result, seed int64, out []dcsim.Result, errs, invErrs []error) {
	for i := range out {
		res.check(errs[i] == nil, "seed %d: %s run: %v", seed, out[i].Policy, errs[i])
		res.check(invErrs[i] == nil, "seed %d: %s final data center: %v", seed, out[i].Policy, invErrs[i])
	}
	res.check(out[0].EnergyPerVMWh < out[1].EnergyPerVMWh,
		"seed %d: IPAC %.2f Wh/VM not below pMapper %.2f Wh/VM", seed, out[0].EnergyPerVMWh, out[1].EnergyPerVMWh)
}

// meanPowerW is a run's mean data-center power over the trace.
func meanPowerW(r dcsim.Result, stepSeconds float64) float64 {
	return r.TotalEnergyWh / (float64(r.Steps) * stepSeconds / 3600)
}

// checkInput checks iteration i's results. The first run of each input
// gets the policy checks and yields the simulated results (ok is true); a
// repeat must reproduce that first run's results exactly.
func checkInput(res *result, i int, first [][]dcsim.Result, seed int64, out []dcsim.Result, errs, invErrs []error) bool {
	if i < len(first) {
		first[i] = out
		checkPolicies(res, seed, out, errs, invErrs)
		return true
	}
	res.check(reflect.DeepEqual(out, first[i%len(first)]), "seed %d: repeat run's results differ from the first run's", seed)
	return false
}

func runConsolidate(rn *run, res *result) error {
	if rn.traced {
		return runConsolidateTraced(rn, res)
	}
	var setup, loop, alloc, power, perVM, saving, p50s, p90s, p99s []float64
	first := make([][]dcsim.Result, dcInputs)
	for i := 0; rn.more(i, dcInputs); i++ {
		seed := subSeed(rn.seed, i, dcInputs)
		mem := startMem()
		t0 := time.Now()
		tr, err := generateTrace(seed)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		out := make([]dcsim.Result, len(dcPolicies))
		errs := make([]error, len(dcPolicies))
		invErrs := make([]error, len(dcPolicies))
		var wall time.Duration
		var steps []float64
		for p, mk := range dcPolicies {
			cfg := dcConfig(tr, seed, mk(), &invErrs[p])
			marks := make([]time.Time, 0, tr.NumSteps())
			cfg.OnStep = func(int, float64, int, float64) { marks = append(marks, time.Now()) }
			start := time.Now()
			out[p], errs[p] = dcsim.Run(cfg)
			wall += time.Since(start)
			for k := 1; k < len(marks); k++ {
				steps = append(steps, ms(marks[k].Sub(marks[k-1])))
			}
		}
		use := mem.stop()
		if checkInput(res, i, first, seed, out, errs, invErrs) {
			power = append(power, meanPowerW(out[0], tr.StepSeconds))
			perVM = append(perVM, out[0].EnergyPerVMWh)
			saving = append(saving, 100*(1-out[0].EnergyPerVMWh/out[1].EnergyPerVMWh))
		}
		loop = append(loop, wall.Seconds())
		p50s = append(p50s, median(steps))
		p90s = append(p90s, p90(steps))
		p99s = append(p99s, p99(steps))
		alloc = append(alloc, use.allocMB)
	}
	res.set("setup_s", median(setup), "s")
	res.set("run_s", median(loop), "s")
	res.set("step_p50_ms", median(p50s), "ms")
	res.note("step_p90_ms", median(p90s), "ms")
	res.note("step_p99_ms", median(p99s), "ms")
	res.set("alloc_mb", median(alloc), "MB")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("power_mean_w", stats.Mean(power), "W")
	res.note("energy_per_vm_wh", median(perVM), "Wh")
	res.note("saving_pct", median(saving), "%")
	res.note("iterations", float64(len(setup)), "count")
	return nil
}

// timedConsolidator times every Consolidate call of the policy it wraps
// and tallies the reports. It forwards the optional search-statistics,
// tracing and fault-injection hooks, so dcsim.Run drives the wrapped
// policy exactly as it would drive the bare one.
type timedConsolidator struct {
	inner      optimizer.Consolidator
	busy       time.Duration
	passes     int
	migrations int
	vetoed     int
}

var (
	_ telemetry.Traceable = (*timedConsolidator)(nil)
	_ fault.Injectable    = (*timedConsolidator)(nil)
)

func (t *timedConsolidator) Consolidate(dc *cluster.DataCenter) (optimizer.Report, error) {
	start := time.Now()
	rep, err := t.inner.Consolidate(dc)
	t.busy += time.Since(start)
	t.passes++
	t.migrations += rep.Migrations
	t.vetoed += rep.Vetoed
	return rep, err
}

func (t *timedConsolidator) UsesDVFS() bool { return t.inner.UsesDVFS() }
func (t *timedConsolidator) Name() string   { return t.inner.Name() }

// SearchStats forwards the wrapped policy's branch-and-bound counters
// (nil when it keeps none, as dcsim expects).
func (t *timedConsolidator) SearchStats() *packing.SearchStats {
	if s, ok := t.inner.(interface{ SearchStats() *packing.SearchStats }); ok {
		return s.SearchStats()
	}
	return nil
}

// SetTrace forwards to the wrapped policy when it is traceable.
func (t *timedConsolidator) SetTrace(tk *telemetry.Track) {
	if tr, ok := t.inner.(telemetry.Traceable); ok {
		tr.SetTrace(tk)
	}
}

// SetFaults forwards to the wrapped policy when it accepts a fault plane.
func (t *timedConsolidator) SetFaults(in *fault.Injector) {
	if f, ok := t.inner.(fault.Injectable); ok {
		f.SetFaults(in)
	}
}

func runConsolidateTraced(rn *run, res *result) error {
	series := map[string][]float64{}
	add := func(k string, v float64) { series[k] = append(series[k], v) }
	first := make([][]dcsim.Result, dcInputs)
	for i := 0; rn.more(i, dcInputs); i++ {
		seed := subSeed(rn.seed, i, dcInputs)
		mem := startMem()
		e2e := time.Now()
		tr, err := generateTrace(seed)
		if err != nil {
			return err
		}
		genS := time.Since(e2e).Seconds()
		timed := make([]*timedConsolidator, len(dcPolicies))
		out := make([]dcsim.Result, len(dcPolicies))
		errs := make([]error, len(dcPolicies))
		invErrs := make([]error, len(dcPolicies))
		var runS, selfS float64
		for p, mk := range dcPolicies {
			tc := &timedConsolidator{inner: mk()}
			timed[p] = tc
			cfg := dcConfig(tr, seed, tc, &invErrs[p])
			// dcsim's own work in trace step k is the time between the
			// OnStep calls that end steps k-1 and k, less the policy's
			// Consolidate time in between. Run's set-up before step 0 and
			// its tail after the last step stay unattributed.
			var mark time.Time
			var markBusy time.Duration
			cfg.OnStep = func(k int, _ float64, _ int, _ float64) {
				now := time.Now()
				if k > 0 {
					selfS += (now.Sub(mark) - (tc.busy - markBusy)).Seconds()
				}
				mark, markBusy = now, tc.busy
			}
			start := time.Now()
			out[p], errs[p] = dcsim.Run(cfg)
			runS += time.Since(start).Seconds()
		}
		e2eS := time.Since(e2e).Seconds()
		use := mem.stop()
		checkInput(res, i, first, seed, out, errs, invErrs)

		// The same runs over the bare policies must give identical results.
		var refS float64
		for p, mk := range dcPolicies {
			var invErr error
			cons := mk()
			cfg := dcConfig(tr, seed, cons, &invErr)
			start := time.Now()
			ref, err := dcsim.Run(cfg)
			refS += time.Since(start).Seconds()
			res.check(err == nil && invErr == nil, "seed %d: reference %s run: %v / %v", seed, cons.Name(), err, invErr)
			res.check(reflect.DeepEqual(ref, out[p]), "seed %d: timed %s run differs from the bare policy's", seed, cons.Name())
		}
		search := timed[0].SearchStats()
		res.check(search != nil && search == timed[0].inner.(*optimizer.IPAC).SearchStats(),
			"seed %d: timed IPAC does not forward SearchStats", seed)
		if search == nil {
			search = &packing.SearchStats{}
		}
		ipacS, pmapperS := timed[0].busy.Seconds(), timed[1].busy.Seconds()
		add("workload.generate_s", genS)
		add("optimizer.ipac_s", ipacS)
		add("optimizer.pmapper_s", pmapperS)
		add("optimizer.passes", float64(timed[0].passes+timed[1].passes))
		add("optimizer.migrations", float64(timed[0].migrations+timed[1].migrations))
		add("optimizer.vetoed", float64(timed[0].vetoed+timed[1].vetoed))
		add("packing.bnb_nodes", float64(search.Nodes))
		add("packing.widenings", float64(search.Widenings))
		add("packing.ns_per_node", ipacS*1e9/float64(max(search.Nodes, 1)))
		add("dcsim.step_self_s", selfS)
		add("runtime.gc_cycles", use.gcCycles)
		add("runtime.gc_pause_s", use.gcPauseS)
		add("runtime.mallocs", use.mallocs)
		add("trace.coverage_frac", (genS+ipacS+pmapperS+selfS)/e2eS)
		add("trace.overhead_frac", runS/refS-1)
	}
	reportLayers(res, mediansOf(series))
	return nil
}
