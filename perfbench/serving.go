package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cronus/internal/cluster"
	"cronus/internal/core"
	"cronus/internal/elastic"
	"cronus/internal/metrics"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/tvm"
	"cronus/internal/workload/rodinia"
)

// servingSpec is one serving workload: the plane's shape and the config it
// serves for a seed.
type servingSpec struct {
	nodes  int
	parts  int
	config func(seed int64) serve.Config
	// capacity bisects v_capacity_rps at capWindow of virtual time.
	capacity  bool
	capWindow sim.Duration
	// samples is the number of record passes pooled for the exact
	// quantiles. p50 and p999 report those quantiles (p99.9 only when the
	// sample supports it).
	samples   int
	p50, p999 bool
	// stages turns Config.Trace on in the traced run for per-stage
	// attribution (the classic plane is the one that supports it).
	stages bool
}

func inferenceMix() []serve.WorkClass {
	return []serve.WorkClass{
		{Name: "resnet18", Weight: 2, Graph: tvm.ResNet18()},
		{Name: "resnet50", Weight: 1, Graph: tvm.ResNet50()},
	}
}

// steadyRate is each steady tenant's Poisson rate: about 82% of the ~152k
// req/s one partition completes at saturation with this mix. At 90% the
// exact p99.9 of one run moves by up to 15% from seed to seed; here by 5%.
const steadyRate = 125000

// steadySpec isolates the flow plane's per-request hot loop: four Poisson
// tenants at a fixed high utilisation, batched inference, no faults.
var steadySpec = servingSpec{
	nodes: 1, parts: 4, samples: 4, p50: true, p999: true,
	capacity: true, capWindow: 60 * sim.Millisecond,
	config: func(seed int64) serve.Config {
		cfg := serve.Config{
			Seed:          seed,
			Window:        600 * sim.Millisecond,
			Policy:        serve.DeviceAffinity,
			MaxBatch:      4,
			BatchWindow:   40 * sim.Microsecond,
			GPUPartitions: 4,
			GPUFlopsPerNs: 400,
			Shards:        4,
		}
		for ti := 0; ti < 4; ti++ {
			cfg.Tenants = append(cfg.Tenants, serve.TenantSpec{
				Name: fmt.Sprintf("steady%d", ti), Arrival: serve.Poisson, Rate: steadyRate, QueueCap: 256,
				Mix: inferenceMix(),
			})
		}
		return cfg
	},
}

// fleetSpec is dominated by setup and the control plane: four nodes, sixteen
// attested tenants with short-lived tickets, a planned migration and a
// mid-run node crash.
var fleetSpec = servingSpec{
	nodes: 4, parts: 16, samples: 6, p999: true,
	config: func(seed int64) serve.Config {
		window := 200 * sim.Millisecond
		cfg := serve.Config{
			Seed:            seed,
			Window:          window,
			Policy:          serve.DeviceAffinity,
			MaxBatch:        4,
			BatchWindow:     40 * sim.Microsecond,
			GPUPartitions:   16,
			GPUFlopsPerNs:   400,
			Shards:          16,
			Nodes:           4,
			AttestTickets:   true,
			AttestTicketTTL: 2 * sim.Millisecond,
			NodeFaults: []cluster.Fault{
				{Kind: cluster.NodeCrash, Node: 1, At: window / 2},
			},
			Migrations: []serve.Migration{
				{At: window / 4, From: elastic.Endpoint{Node: 2, Part: 1}, To: elastic.Endpoint{Node: 2, Part: 0}},
			},
		}
		for ti := 0; ti < 16; ti++ {
			cfg.Tenants = append(cfg.Tenants, serve.TenantSpec{
				Name: fmt.Sprintf("fleet%02d", ti), Arrival: serve.Poisson, Rate: 40000, QueueCap: 256,
				Mix: inferenceMix(),
			})
		}
		return cfg
	},
}

// classicSpec runs the classic plane's full per-request sRPC ring protocol:
// an open-loop inference tenant, a closed-loop tenant and an unbatchable
// rodinia tenant, supervision armed and one proceed-trap mid-run.
var classicSpec = servingSpec{
	nodes: 1, parts: 2, samples: 4, p50: true, stages: true,
	config: func(seed int64) serve.Config {
		window := 600 * sim.Millisecond
		nn := rodinia.NN()
		return serve.Config{
			Seed:           seed,
			Window:         window,
			Policy:         serve.LeastOutstanding,
			MaxBatch:       4,
			BatchWindow:    50 * sim.Microsecond,
			GPUPartitions:  2,
			FailAt:         window / 4,
			FailPartition:  "gpu-part1",
			RequestTimeout: 20 * sim.Millisecond,
			Supervision: &spm.Supervision{
				HeartbeatEvery:  200 * sim.Microsecond,
				MissedBeats:     3,
				RestartBackoff:  500 * sim.Microsecond,
				QuarantineAfter: 3,
				FailureWindow:   sim.Second,
			},
			HangReportAfter: 2,
			Tenants: []serve.TenantSpec{
				{Name: "open", Arrival: serve.Poisson, Rate: 6000, Mix: inferenceMix()},
				{Name: "closed", Arrival: serve.ClosedLoop, Clients: 2, Think: sim.Millisecond,
					Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}}},
				{Name: "rodinia", Arrival: serve.FixedRate, Rate: 200,
					Mix: []serve.WorkClass{{Name: "nn", Bench: &nn}}},
			},
		}
	},
}

// servePass is one boot-and-serve simulation timed from outside.
type servePass struct {
	setup, boot, open, serve time.Duration
	res                      *serve.Result
	rt                       rtSample // runtime counters across Serve
	launches                 uint64   // device kernel launches during Serve
	// setupCtr and serveCtr are metrics.Default counter deltas over setup
	// and Serve, snap its final snapshot (traced passes only).
	setupCtr, serveCtr map[string]uint64
	snap               *metrics.Snapshot
}

// runServePass boots the plane and serves cfg once. traced turns the
// process-wide metrics registry on for the pass.
func runServePass(spec servingSpec, cfg serve.Config, traced bool) (*servePass, error) {
	if traced {
		metrics.Default.Reset()
		metrics.Default.Enable()
		defer metrics.Default.Disable()
	}
	var (
		out     servePass
		bodyErr error
	)
	start := time.Now()
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		pcfg := core.DefaultConfig()
		pcfg.GPUs = spec.parts / spec.nodes
		pcfg.NPUs = 0
		pcfg.MPS = true
		t0 := time.Now()
		var plats []*core.Platform
		if spec.nodes >= 2 {
			plats, bodyErr = cluster.BootNodes(p, spec.nodes, pcfg)
		} else {
			var pl *core.Platform
			pl, bodyErr = core.BuildPlatform(p, pcfg)
			plats = []*core.Platform{pl}
		}
		if bodyErr != nil {
			return
		}
		t1 := time.Now()
		var srv *serve.Server
		if spec.nodes >= 2 {
			srv, bodyErr = serve.NewCluster(p, plats, cfg)
		} else {
			srv, bodyErr = serve.New(p, plats[0], cfg)
		}
		if bodyErr != nil {
			return
		}
		t2 := time.Now()
		snap0 := metrics.Default.Snapshot()
		l0 := launches(plats)
		rt0 := readRuntime()
		t3 := time.Now()
		out.res, bodyErr = srv.Serve(p)
		t4 := time.Now()
		out.rt = readRuntime().sub(rt0)
		out.launches = launches(plats) - l0
		out.boot, out.open, out.serve = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3)
		out.setup = t2.Sub(start)
		if traced {
			out.snap = metrics.Default.Snapshot()
			out.setupCtr = deltas(snap0, nil)
			out.serveCtr = deltas(out.snap, snap0)
		}
	})
	if err := k.Run(); err != nil {
		k.Shutdown()
		return nil, err
	}
	k.Shutdown()
	if bodyErr != nil {
		return nil, bodyErr
	}
	return &out, nil
}

func launches(plats []*core.Platform) uint64 {
	var n uint64
	for _, pl := range plats {
		for _, g := range pl.GPUs {
			n += g.Dev.Launches()
		}
	}
	return n
}

func deltas(after, before *metrics.Snapshot) map[string]uint64 {
	out := make(map[string]uint64, len(after.Counters))
	for name := range after.Counters {
		out[name] = after.CounterDelta(before, name)
	}
	return out
}

// totals sums the per-tenant accounting of a result.
type totals struct {
	offered, admitted, shed, completed, failed, replayed, retried, dups uint64
	rehomed                                                             int
}

func sumTenants(res *serve.Result) totals {
	var t totals
	for _, tr := range res.Tenants {
		t.offered += tr.Offered
		t.admitted += tr.Admitted
		t.shed += tr.Shed
		t.completed += tr.Completed
		t.failed += tr.Failed
		t.replayed += tr.Replayed
		t.retried += tr.Retried
		t.dups += tr.Duplicates
		if tr.Rehomed {
			t.rehomed++
		}
	}
	return t
}

// fingerprint renders every virtual count and time of a result, so passes of
// one config can be compared for identity.
func fingerprint(res *serve.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "batches=%d/%d drained=%d split=%d\n", res.Batches, res.BatchReqs, res.DrainedAt, res.SplitBrain)
	for _, t := range res.Tenants {
		fmt.Fprintf(&b, "%s %d %d %d %d %d %d %d %d %.0f %.0f %.0f %.3f home=%d/%v\n",
			t.Name, t.Offered, t.Admitted, t.Shed, t.Completed, t.Failed, t.Replayed, t.Retried,
			t.Duplicates, t.P50NS, t.P99NS, t.MeanNS, t.GoodputRPS, t.Home, t.Rehomed)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(&b, "fail %s %s %d %v %v %d\n", f.Partition, f.Reason, f.FailedAt, f.Recovered, f.Quarantined, f.DowntimeNS)
	}
	for _, ev := range res.NodeEvents {
		fmt.Fprintf(&b, "node %s\n", ev)
	}
	if e := res.Elastic; e != nil {
		fmt.Fprintf(&b, "elastic %d %d %d %d %d %d\n", e.Migrations, e.Interrupted, e.DrainRaces, e.ScaleUps, e.ScaleDowns, e.Replayed)
	}
	return b.String()
}

// exact holds order statistics over every completed request's latency.
type exact struct {
	lat []int64 // sorted, virtual ns
}

func exactLatencies(res *serve.Result) exact {
	var lat []int64
	for _, r := range res.Requests {
		if r.Err == nil {
			lat = append(lat, int64(r.Latency()))
		}
	}
	return exactOf(lat)
}

func exactOf(lat []int64) exact {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return exact{lat: lat}
}

// q is the nearest-rank quantile: the smallest latency with at least a q
// share of the sample at or below it.
func (e exact) q(q float64) float64 {
	if len(e.lat) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(e.lat)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(e.lat[i])
}

// beyond counts the samples strictly above quantile q's order statistic.
func (e exact) beyond(q float64) int {
	v := int64(e.q(q))
	i := sort.Search(len(e.lat), func(i int) bool { return e.lat[i] > v })
	return len(e.lat) - i
}

// checkServing applies the conservation, exactly-once and no-split-brain
// checks to one result.
func checkServing(rep *report, label string, res *serve.Result) {
	t := sumTenants(res)
	rep.check(t.offered == t.admitted+t.shed, "%s: offered %d != admitted %d + shed %d", label, t.offered, t.admitted, t.shed)
	rep.check(t.admitted == t.completed+t.failed, "%s: admitted %d not drained (completed %d, failed %d)",
		label, t.admitted, t.completed, t.failed)
	rep.check(t.dups == 0, "%s: %d duplicate completions", label, t.dups)
	rep.check(res.SplitBrain == 0, "%s: split-brain %d", label, res.SplitBrain)
	if res.Requests != nil {
		rep.check(uint64(len(res.Requests)) == t.admitted, "%s: %d request records for %d admitted",
			label, len(res.Requests), t.admitted)
		for _, r := range res.Requests {
			if r.Done < r.Arrived {
				rep.check(false, "%s: request %d done before it arrived", label, r.ID)
				break
			}
		}
	}
}

// record is what the record pass leaves behind: scalars only, so the timed
// passes run with the program's own live heap and not the harness's.
type record struct {
	fingerprint string
	tot         totals
	histErr     float64 // bucketed vs exact p50, mean absolute, percent
	histBias    float64 // the same, signed
}

// recordPass serves cfg once with per-request records and reduces them; lat
// receives the completed requests' latencies when non-nil.
func recordPass(spec servingSpec, cfg serve.Config, rep *report, lat *[]int64) (*record, error) {
	cfg.KeepRequests = true
	p, err := runServePass(spec, cfg, false)
	if err != nil {
		return nil, fmt.Errorf("record pass: %w", err)
	}
	checkServing(rep, "record", p.res)
	rep.count(p.res)
	if lat != nil {
		for _, r := range p.res.Requests {
			if r.Err == nil {
				*lat = append(*lat, int64(r.Latency()))
			}
		}
	}
	histErr, histBias := histP50Error(p.res)
	return &record{fingerprint: fingerprint(p.res), tot: sumTenants(p.res), histErr: histErr, histBias: histBias}, nil
}

// sampleSeeds are the seeds of a run's latency sample: the run's own seed
// and samples-1 seeds derived from it.
func sampleSeeds(seed int64, samples int) []int64 {
	seeds := []int64{seed}
	for i := 1; i < samples; i++ {
		seeds = append(seeds, seed+int64(i)<<32)
	}
	return seeds
}

// runServing measures one serving workload. A record pass (per-request
// records) runs first as the in-process warm-up; every measured pass must
// reproduce its virtual counts. The exact quantiles come from record passes
// after the measured ones: the run's seed and spec.samples-1 seeds derived
// from it, pooled.
func runServing(spec servingSpec, o options) (*report, error) {
	rep := newReport()
	cfg := spec.config(o.seed)
	var rec *record
	var err error
	if o.warmup {
		if rec, err = recordPass(spec, cfg, rep, nil); err != nil {
			return nil, err
		}
	}
	var prints []string
	if o.trace {
		prints, err = tracedServing(spec, o, cfg, rep)
	} else {
		prints, err = timedServing(spec, o, cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	var lat []int64
	seeds := []int64{o.seed}
	if !o.trace {
		seeds = sampleSeeds(o.seed, spec.samples)
	}
	for i, seed := range seeds {
		c := spec.config(seed)
		r, err := recordPass(spec, c, rep, &lat)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if rec != nil {
				rep.check(r.fingerprint == rec.fingerprint, "the record pass does not repeat its own virtual counts")
			}
			rec = r
		}
	}
	for _, fp := range prints {
		rep.check(fp == rec.fingerprint, "a measured pass's virtual counts differ from the record pass")
	}
	t := rec.tot
	rep.note("v_fail_ratio: %.6g = (shed %d + failed %d) / offered %d; the workload is sized so that nothing fails, "+
		"and every offered request of every pass counts in attempted/failed", float64(t.shed+t.failed)/float64(t.offered),
		t.shed, t.failed, t.offered)
	if o.trace {
		rep.set("serve.hist_p50_err_pct", "%", rec.histErr)
		rep.note("histogram p50: the bucketed per-tenant p50 is %+.3f%% off the exact p50 (request-weighted mean)", rec.histBias)
		return rep, nil
	}
	ex := exactOf(lat)
	rep.note("load: open-loop arrivals are scheduled in virtual time, so the generator is never late; no lag to report")
	rep.note("latency sample: %d completed requests from %d record passes (seed %d and %d derived seeds)",
		len(ex.lat), len(seeds), o.seed, len(seeds)-1)
	if spec.p50 {
		rep.set("v_p50_us", "us", ex.q(0.50)/1e3)
	} else {
		rep.note("p50: %.3fus, not reported: it falls on an atom of the latency distribution (requests that close "+
			"a full batch see exactly its service time), so it reads the same for every seed", ex.q(0.50)/1e3)
	}
	rep.set("v_p99_us", "us", ex.q(0.99)/1e3)
	if spec.p999 {
		if n := ex.beyond(0.999); n >= 10 {
			rep.set("v_p999_us", "us", ex.q(0.999)/1e3)
			rep.note("p99.9: %d samples beyond it, of %d", n, len(ex.lat))
		} else {
			rep.note("p99.9: not reported, only %d samples beyond it", n)
		}
	}
	if spec.capacity {
		rps, steps, err := capacity(spec, o, rep)
		if err != nil {
			return nil, err
		}
		rep.set("v_capacity_rps", "req/s", rps)
		rep.note("capacity: %d bisection steps at a %s window, exact p99 limit %.0fus, nothing shed",
			steps, spec.capWindow, o.p99Limit)
	}
	return rep, nil
}

// timedServing is the untraced end-to-end run of a serving workload. It
// returns the virtual-count fingerprint of every pass.
func timedServing(spec servingSpec, o options, cfg serve.Config, rep *report) ([]string, error) {
	var setups, perReq, runs, peaks []float64
	var prints []string
	watch := startHeapWatch()
	defer watch.stop()
	passes, err := measure(o.seconds, func() error {
		p, err := runServePass(spec, cfg, false)
		if err != nil {
			return err
		}
		peaks = append(peaks, watch.take())
		checkServing(rep, "timed", p.res)
		rep.count(p.res)
		prints = append(prints, fingerprint(p.res))
		t := sumTenants(p.res)
		setups = append(setups, p.setup.Seconds())
		perReq = append(perReq, float64(p.serve.Nanoseconds())/float64(t.completed+t.failed))
		runs = append(runs, p.serve.Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("heap_peak_mib", "MiB", median(peaks))
	rep.set("setup_s", "s", median(setups))
	rep.set("host_ns_per_vreq", "ns", median(perReq))
	rep.set("run_s", "s", median(runs))
	rep.note("timed: %d passes; host ns per vreq %s", passes, spread(perReq))
	rep.note("timed: setup s %s", spread(setups))
	return prints, nil
}

// measure runs pass repeatedly until seconds of host time have gone by (at
// least three passes) and returns the pass count.
func measure(seconds float64, pass func() error) (int, error) {
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start).Seconds() < seconds {
		if err := pass(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// spread renders the median and range of a measurement series.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "(none)"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("median %.6g min %.6g max %.6g n=%d", median(s), s[0], s[len(s)-1], len(s))
}

// capacity bisects the highest aggregate offered rate whose exact p99 stays
// within the limit with nothing shed or failed, scaling every tenant's rate
// by one factor. It is untimed and deterministic in the seed.
func capacity(spec servingSpec, o options, rep *report) (float64, int, error) {
	base := spec.config(o.seed)
	base.Window = spec.capWindow
	base.KeepRequests = true
	nominal := 0.0
	for _, t := range base.Tenants {
		nominal += t.Rate
	}
	steps := 0
	ok := func(scale float64) (bool, error) {
		steps++
		cfg := base
		cfg.Tenants = append([]serve.TenantSpec(nil), base.Tenants...)
		for i := range cfg.Tenants {
			cfg.Tenants[i].Rate *= scale
		}
		p, err := runServePass(spec, cfg, false)
		if err != nil {
			return false, err
		}
		// A probe past capacity sheds by design; it must still conserve.
		checkServing(rep, "capacity probe", p.res)
		t := sumTenants(p.res)
		return t.shed == 0 && t.failed == 0 && exactLatencies(p.res).q(0.99) <= o.p99Limit*1e3, nil
	}
	lo, hi := 0.5, 1.5
	for {
		good, err := ok(lo)
		if err != nil {
			return 0, steps, err
		}
		if good {
			break
		}
		if lo < 0.01 {
			return 0, steps, errors.New("capacity: no rate meets the p99 limit")
		}
		hi, lo = lo, lo/2
	}
	for {
		good, err := ok(hi)
		if err != nil {
			return 0, steps, err
		}
		if !good {
			break
		}
		if hi > 64 {
			return 0, steps, errors.New("capacity: no rate exceeds the p99 limit")
		}
		lo, hi = hi, hi*2
	}
	for hi-lo > 1.0/512 {
		mid := (lo + hi) / 2
		good, err := ok(mid)
		if err != nil {
			return 0, steps, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo * nominal, steps, nil
}
