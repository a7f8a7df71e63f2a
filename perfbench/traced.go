package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"time"

	"cronus/internal/otrace"
	"cronus/internal/serve"
)

// layerPhase accumulates what traced passes add: the CPU profile of each
// traced pass, split by host layer, and the passes' host times.
type layerPhase struct {
	nanos   map[string]int64 // profiled CPU time per host layer
	samples int64
	hosts   []float64 // host seconds per traced pass
}

// profile runs one traced pass under the CPU profiler. The pass returns its
// host time in seconds.
func (l *layerPhase) profile(pass func() (float64, error)) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	host, err := pass()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	nanos, samples, err := layerNanos(buf.Bytes())
	if err != nil {
		return err
	}
	if l.nanos == nil {
		l.nanos = make(map[string]int64)
	}
	for layer, v := range nanos {
		l.nanos[layer] += v
	}
	l.samples += samples
	l.hosts = append(l.hosts, host)
	return nil
}

// finish reports the host-layer shares and the tracing overhead: the median
// over pairs of a traced pass's host time against the untraced pass run just
// before it.
func (l *layerPhase) finish(rep *report, untraced []float64) {
	var total int64
	for _, v := range l.nanos {
		total += v
	}
	for _, layer := range hostLayers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(l.nanos[layer]) / float64(total)
		}
		rep.set("host."+layer+"_pct", "%", share)
	}
	rep.note("profile: %d samples over %d traced passes", l.samples, len(l.hosts))
	ratios := make([]float64, len(l.hosts))
	for i, h := range l.hosts {
		ratios[i] = 100 * (h/untraced[i] - 1)
	}
	rep.set("trace_overhead_pct", "%", median(ratios))
}

// setRuntime reports the Go runtime's allocation and collection work per
// operation, summed over the untraced passes.
func setRuntime(rep *report, rt rtSample, ops uint64, passes int) {
	rep.set("gc.allocs_per_vreq", "count", float64(rt.allocObjects)/float64(ops))
	rep.set("gc.bytes_per_vreq", "B", float64(rt.allocBytes)/float64(ops))
	rep.set("gc.cycles", "count", float64(rt.gcCycles)/float64(passes))
	gcPct := 0.0
	if rt.totalCPU > 0 {
		gcPct = 100 * rt.gcCPU / rt.totalCPU
	}
	rep.set("gc.cpu_pct", "%", gcPct)
}

// setCounters reports the simulation, sRPC, SPM, device and attestation
// counters of a traced pass per operation. hostNS is the untraced host time
// of the same operations; setupCtr holds the counters of set-up.
func setCounters(rep *report, ctr, setupCtr map[string]uint64, launches, ops uint64, hostNS float64) {
	per := func(name string) float64 { return float64(ctr[name]) / float64(ops) }
	events := ctr["sim.events.dispatched"]
	rep.check(events > 0, "no simulation events were counted in the traced pass")
	rep.set("sim.events_per_vreq", "count", per("sim.events.dispatched"))
	rep.set("sim.host_ns_per_event", "ns", hostNS/float64(events))
	rep.set("srpc.calls_per_vreq", "count", per("srpc.calls"))
	rep.set("srpc.sync_waits_per_vreq", "count", per("srpc.sync_waits"))
	rep.set("spm.world_switches_per_vreq", "count", per("spm.world_switches"))
	rep.set("spm.tlb_misses_per_vreq", "count", per("spm.tlb.misses"))
	rep.set("gpu.launches_per_vreq", "count", float64(launches)/float64(ops))
	rep.set("attest.channel_opens", "count", float64(setupCtr["attest.channel.opens"]))
}

// setServing reports the serving plane's own accounting of a traced pass;
// res is nil on a workload that serves nothing, where every count is 0.
func setServing(rep *report, res *serve.Result, failovers uint64) {
	var t totals
	var batches, cold, resumed uint64
	var migrations uint64
	if res != nil {
		t = sumTenants(res)
		batches = res.Batches
		cold, resumed = res.Metrics.Counters["serve.attest.cold"], res.Metrics.Counters["serve.attest.resumed"]
		if res.Elastic != nil {
			migrations = res.Elastic.Migrations
		}
	}
	perReq := 0.0
	if vreqs := t.completed + t.failed; vreqs > 0 {
		perReq = float64(batches) / float64(vreqs)
	}
	rep.set("serve.batches_per_vreq", "count", perReq)
	rep.set("attest.cold_admissions", "count", float64(cold))
	rep.set("attest.resumed_admissions", "count", float64(resumed))
	rep.set("spm.failovers", "count", float64(failovers))
	rep.set("serve.replayed", "count", float64(t.replayed))
	rep.set("serve.retries", "count", float64(t.retried))
	rep.set("cluster.rehomed", "count", float64(t.rehomed))
	rep.set("elastic.migrations", "count", float64(migrations))
}

// tracedServing is the per-layer run of a serving workload. It alternates
// an untraced pass, which times the public calls and reads the runtime's
// counters, with a traced pass (metrics registry on, CPU profile, stage
// attribution where the plane supports it), so both see the same machine.
func tracedServing(spec servingSpec, o options, cfg serve.Config, rep *report) ([]string, error) {
	var prints []string
	var boot, open, srv, hosts []float64
	var rt rtSample
	var ops uint64
	var lp layerPhase
	var last *servePass
	tcfg := cfg
	tcfg.Trace = spec.stages
	passes, err := measure(o.seconds, func() error {
		p, err := runServePass(spec, cfg, false)
		if err != nil {
			return err
		}
		checkServing(rep, "untraced", p.res)
		prints = append(prints, fingerprint(p.res))
		rep.count(p.res)
		t := sumTenants(p.res)
		ops += t.completed + t.failed
		rt.add(p.rt)
		boot = append(boot, ms(p.boot))
		open = append(open, ms(p.open))
		srv = append(srv, ms(p.serve))
		hosts = append(hosts, (p.setup + p.serve).Seconds())
		return lp.profile(func() (float64, error) {
			p, err := runServePass(spec, tcfg, true)
			if err != nil {
				return 0, err
			}
			checkServing(rep, "traced", p.res)
			prints = append(prints, fingerprint(p.res))
			rep.count(p.res)
			last = p
			return (p.setup + p.serve).Seconds(), nil
		})
	})
	if err != nil {
		return nil, err
	}
	rep.set("core.boot_ms", "ms", median(boot))
	rep.set("core.open_ms", "ms", median(open))
	rep.note("serve: Serve host ms %s", spread(srv))
	setRuntime(rep, rt, ops, passes)
	lp.finish(rep, hosts)

	res := last.res
	t := sumTenants(res)
	setCounters(rep, last.serveCtr, last.setupCtr, last.launches, t.completed+t.failed, median(srv)*1e6)
	failovers, failoverUS := last.failover()
	setServing(rep, res, failovers)
	if failovers > 0 {
		rep.set("spm.failover_us", "us", failoverUS)
	}
	rep.set("serve.avg_batch", "count", res.AvgBatch())
	if spec.stages {
		setStages(rep, res.Traces)
	}
	return prints, nil
}

// failover returns the number of SPM failovers of a traced pass and their
// mean latency in µs.
func (p *servePass) failover() (uint64, float64) {
	h, ok := p.snap.Histograms["spm.failover.latency_ns"]
	if !ok || h.Count == 0 {
		return 0, 0
	}
	return h.Count, h.Mean() / 1e3
}

// setStages reports the mean per-request virtual time of each serving stage
// from the conservative otrace attribution.
func setStages(rep *report, traces []otrace.RequestTrace) {
	a := otrace.Attribute(traces)
	var reqs uint64
	totals := make(map[otrace.Stage]float64)
	for _, ta := range a.Tenants {
		reqs += ta.Requests
		for _, st := range ta.Stages {
			totals[st.Stage] += float64(st.Total)
		}
	}
	for _, st := range []struct {
		stage otrace.Stage
		name  string
	}{
		{otrace.StageQueue, "queue"}, {otrace.StageBatch, "batch"}, {otrace.StageReplica, "replica_queue"},
		{otrace.StageExec, "execute"}, {otrace.StageRequeue, "requeue"},
	} {
		rep.set("serve.stage."+st.name+"_us", "us", totals[st.stage]/float64(reqs)/1e3)
	}
	rep.note("stages: attributed %d traced requests", reqs)
}

// histP50Error compares the program's log2-bucketed per-tenant p50 with the
// exact p50 of the same tenant and returns the request-weighted mean of the
// absolute and of the signed relative error, in percent.
func histP50Error(res *serve.Result) (abs, signed float64) {
	byTenant := make(map[string][]int64)
	for _, r := range res.Requests {
		if r.Err == nil {
			byTenant[r.Tenant] = append(byTenant[r.Tenant], int64(r.Latency()))
		}
	}
	var n float64
	for _, tr := range res.Tenants {
		lat := byTenant[tr.Name]
		if len(lat) == 0 {
			continue
		}
		ex := exactOf(lat).q(0.5)
		w := float64(len(lat))
		e := 100 * (tr.P50NS - ex) / ex
		abs += w * math.Abs(e)
		signed += w * e
		n += w
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	return abs / n, signed / n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
