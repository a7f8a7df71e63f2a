package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/dnn"
	"cronus/internal/gpu"
	"cronus/internal/metrics"
	"cronus/internal/sim"
	"cronus/internal/workload/rodinia"
)

// paperSystems are the four systems of Fig 7 and Fig 8, in the paper's order.
var paperSystems = []baseline.System{baseline.Native, baseline.TrustZone, baseline.HIX, baseline.CRONUS}

// systemKey names each system in per-layer metric names.
var systemKey = map[baseline.System]string{
	baseline.Native: "native", baseline.TrustZone: "trustzone", baseline.HIX: "hix", baseline.CRONUS: "cronus",
}

// fig8Iters and fig8Batch size the training rows: enough steps that the
// timed step loop dominates trainer construction, few enough that a pass of
// the whole suite fits several times in a run.
const (
	fig8Iters = 2
	fig8Batch = 16
)

// fig8Models is the training subset: the smallest and the largest-kernel
// model of Fig 8, so both the launch-bound and the arithmetic-bound ends of
// the device layer are timed.
func fig8Models() []*dnn.Model { return []*dnn.Model{dnn.LeNet2(), dnn.VGG16(), dnn.DenseNet()} }

// rowRun is one (row, system) execution timed from outside.
type rowRun struct {
	boot, setup, run time.Duration // boot is part of setup (CRONUS only)
	virt             sim.Duration  // virtual time of the timed body
	ops              int           // rodinia passes or training steps
	launches         uint64
	loss             float32 // last training loss (Fig 8 rows)
	// ctr and setupCtr are metrics.Default counter deltas over the timed
	// body and over set-up (traced passes only).
	ctr, setupCtr map[string]uint64
}

// onSystem mirrors the evaluation's per-system runner with public calls:
// boot the system and open its CUDA context (setup), let prepare build the
// row's state (also setup), then time body.
func onSystem(system baseline.System, cubin []byte, register func(sms float64), traced bool,
	prepare func(p *sim.Proc, ops accel.CUDA) (func(p *sim.Proc) (rowRun, error), error)) (rowRun, error) {
	var (
		out     rowRun
		bodyErr error
	)
	start := time.Now()
	snap0 := metrics.Default.Snapshot()
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		var (
			ops accel.CUDA
			dev *gpu.Device
		)
		if system == baseline.CRONUS {
			t0 := time.Now()
			pl, err := core.BuildPlatform(p, core.DefaultConfig())
			if err != nil {
				bodyErr = err
				return
			}
			out.boot = time.Since(t0)
			dev = pl.GPUs[0].Dev
			register(dev.SMs())
			s, err := pl.NewSession(p, "exp")
			if err != nil {
				bodyErr = err
				return
			}
			conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: cubin, RingPages: 65})
			if err != nil {
				bodyErr = err
				return
			}
			defer conn.Close(p)
			ops = conn
		} else {
			costs := sim.DefaultCosts()
			dev = gpu.New(k, costs, gpu.Config{Name: "gpu0", MemBytes: 1 << 30, SMs: 46, CopyEngs: 2, MPS: true, KeySeed: "exp"})
			gpu.RegisterStdKernels(dev.SMs())
			register(dev.SMs())
			var err error
			switch system {
			case baseline.Native:
				ops, err = baseline.NewNativeCUDA(dev, costs, cubin)
			case baseline.TrustZone:
				ops, err = baseline.NewTrustZoneCUDA(dev, costs, cubin)
			case baseline.HIX:
				ops, err = baseline.NewHIXCUDA(dev, costs, cubin)
			}
			if err != nil {
				bodyErr = err
				return
			}
		}
		body, err := prepare(p, ops)
		if err != nil {
			bodyErr = err
			return
		}
		out.setup = time.Since(start)
		snap := metrics.Default.Snapshot()
		l0 := dev.Launches()
		v0 := p.Now()
		t0 := time.Now()
		r, err := body(p)
		out.run = time.Since(t0)
		out.virt = sim.Duration(p.Now() - v0)
		out.launches = dev.Launches() - l0
		out.ops, out.loss = r.ops, r.loss
		if traced {
			out.ctr = deltas(metrics.Default.Snapshot(), snap)
			out.setupCtr = deltas(snap, snap0)
		}
		bodyErr = err
	})
	if err := k.Run(); err != nil {
		k.Shutdown()
		return rowRun{}, err
	}
	k.Shutdown()
	return out, bodyErr
}

// paperRow is one Fig 7 benchmark or Fig 8 model.
type paperRow struct {
	fig, name string
	cubin     []byte
	register  func(sms float64)
	prepare   func(p *sim.Proc, ops accel.CUDA) (func(p *sim.Proc) (rowRun, error), error)
}

func paperRows() []paperRow {
	var rows []paperRow
	for _, b := range rodinia.AllExtended() {
		b := b
		rows = append(rows, paperRow{
			fig: "fig7", name: b.Name, cubin: b.Cubin(), register: rodinia.RegisterKernels,
			prepare: func(_ *sim.Proc, ops accel.CUDA) (func(p *sim.Proc) (rowRun, error), error) {
				return func(p *sim.Proc) (rowRun, error) { return rowRun{ops: 1}, b.Run(p, ops) }, nil
			},
		})
	}
	for _, m := range fig8Models() {
		m := m
		rows = append(rows, paperRow{
			fig: "fig8", name: m.Name, cubin: dnn.Cubin(), register: dnn.RegisterKernels,
			prepare: func(p *sim.Proc, ops accel.CUDA) (func(p *sim.Proc) (rowRun, error), error) {
				tr, err := dnn.NewTrainer(p, ops, m, fig8Batch)
				if err != nil {
					return nil, err
				}
				return func(p *sim.Proc) (rowRun, error) {
					r := rowRun{}
					for i := 0; i < fig8Iters; i++ {
						loss, err := tr.Step(p)
						if err != nil {
							return r, err
						}
						r.ops++
						r.loss = loss
					}
					return r, nil
				}, nil
			},
		})
	}
	return rows
}

// paperPass is one pass over every row on every system.
type paperPass struct {
	setup, run, boot time.Duration
	perSystem        map[baseline.System]time.Duration // timed bodies
	ops, cronusOps   int
	launches         uint64            // device launches of the CRONUS bodies
	rt               rtSample          // runtime counters across the timed bodies
	ctr, setupCtr    map[string]uint64 // CRONUS rows
	fingerprint      string
	worstPct         float64 // worst CRONUS virtual overhead over native
	worstRow         string
	lossMismatch     []string
}

func runPaperPass(rows []paperRow, traced bool) (*paperPass, error) {
	if traced {
		metrics.Default.Reset()
		metrics.Default.Enable()
		defer metrics.Default.Disable()
	}
	pp := &paperPass{perSystem: make(map[baseline.System]time.Duration),
		ctr: make(map[string]uint64), setupCtr: make(map[string]uint64)}
	var fp strings.Builder
	for _, row := range rows {
		virt := make(map[baseline.System]sim.Duration)
		var loss0 float32
		for si, system := range paperSystems {
			rt0 := readRuntime()
			r, err := onSystem(system, row.cubin, row.register, traced, row.prepare)
			if err != nil {
				return nil, fmt.Errorf("%s %s on %s: %w", row.fig, row.name, system, err)
			}
			pp.rt.add(readRuntime().sub(rt0))
			pp.setup += r.setup
			pp.boot += r.boot
			pp.run += r.run
			pp.perSystem[system] += r.run
			pp.ops += r.ops
			if system == baseline.CRONUS {
				pp.cronusOps += r.ops
				pp.launches += r.launches
				for k, v := range r.ctr {
					pp.ctr[k] += v
				}
				for k, v := range r.setupCtr {
					pp.setupCtr[k] += v
				}
			}
			virt[system] = r.virt
			fmt.Fprintf(&fp, "%s/%s/%s=%d ", row.fig, row.name, system, r.virt)
			if row.fig == "fig8" {
				if si == 0 {
					loss0 = r.loss
				}
				if r.loss != loss0 || math.IsNaN(float64(r.loss)) {
					pp.lossMismatch = append(pp.lossMismatch, fmt.Sprintf("%s on %s: loss %v, native %v", row.name, system, r.loss, loss0))
				}
			}
		}
		pct := 100 * (float64(virt[baseline.CRONUS])/float64(virt[baseline.Native]) - 1)
		if pp.worstRow == "" || pct > pp.worstPct {
			pp.worstPct, pp.worstRow = pct, row.fig+"/"+row.name
		}
	}
	pp.fingerprint = fp.String()
	return pp, nil
}

// runPaper measures the Fig 7 and Fig 8 suite on all four systems.
func runPaper(o options) (*report, error) {
	rep := newReport()
	rows := paperRows()
	var want string
	checkPass := func(pp *paperPass) {
		rep.attempted += int64(pp.ops)
		if want == "" {
			want = pp.fingerprint
		}
		rep.check(pp.fingerprint == want, "paper-eval virtual times differ between passes")
		rep.check(pp.worstPct <= 7.1, "CRONUS overhead %.3f%% on %s exceeds the paper's 7.1%%", pp.worstPct, pp.worstRow)
		for _, m := range pp.lossMismatch {
			rep.check(false, "training output differs across systems: %s", m)
		}
	}
	if o.warmup {
		pp, err := runPaperPass(rows, false)
		if err != nil {
			return nil, err
		}
		checkPass(pp)
	}
	rep.note("paper-eval: %d rows x %d systems per pass (Fig 8: %d steps at batch %d); inputs are the program's fixed Rodinia and DNN inputs",
		len(rows), len(paperSystems), fig8Iters, fig8Batch)

	var setups, runs, perOp, boots, opens, hosts, peaks []float64
	perSystem := make(map[baseline.System][]float64)
	var rt rtSample
	var ops int
	var last, traced *paperPass
	var lp layerPhase
	watch := startHeapWatch()
	defer watch.stop()
	// A traced run alternates an untraced pass with a traced one, so both
	// see the same machine.
	passes, err := measure(o.seconds, func() error {
		pp, err := runPaperPass(rows, false)
		if err != nil {
			return err
		}
		peaks = append(peaks, watch.take())
		checkPass(pp)
		setups = append(setups, pp.setup.Seconds())
		runs = append(runs, pp.run.Seconds())
		perOp = append(perOp, float64(pp.run.Nanoseconds())/float64(pp.ops))
		boots = append(boots, ms(pp.boot))
		opens = append(opens, ms(pp.setup-pp.boot))
		hosts = append(hosts, (pp.setup + pp.run).Seconds())
		for s, d := range pp.perSystem {
			perSystem[s] = append(perSystem[s], ms(d))
		}
		rt.add(pp.rt)
		ops += pp.ops
		last = pp
		if !o.trace {
			return nil
		}
		return lp.profile(func() (float64, error) {
			pp, err := runPaperPass(rows, true)
			if err != nil {
				return 0, err
			}
			checkPass(pp)
			traced = pp
			return (pp.setup + pp.run).Seconds(), nil
		})
	})
	if err != nil {
		return nil, err
	}
	rep.note("paper-eval: %d measured passes; run s %s", passes, spread(runs))
	rep.note("paper-eval: worst CRONUS overhead %.4f%% on %s", last.worstPct, last.worstRow)
	if !o.trace {
		rep.set("setup_s", "s", median(setups))
		rep.set("run_s", "s", median(runs))
		rep.set("host_ns_per_vreq", "ns", median(perOp))
		rep.set("heap_peak_mib", "MiB", median(peaks))
		rep.set("v_cronus_overhead_pct", "%", last.worstPct)
		return rep, nil
	}

	for _, s := range paperSystems {
		rep.set("paper."+systemKey[s]+"_ms", "ms", median(perSystem[s]))
	}
	rep.set("core.boot_ms", "ms", median(boots))
	rep.set("core.open_ms", "ms", median(opens))
	setRuntime(rep, rt, uint64(ops), passes)
	lp.finish(rep, hosts)
	setCounters(rep, traced.ctr, traced.setupCtr, traced.launches, uint64(traced.cronusOps),
		median(perSystem[baseline.CRONUS])*1e6)
	setServing(rep, nil, 0)
	rep.note("paper-eval: a vreq is one timed operation (a Rodinia pass or a training step); gc.* count every " +
		"system's operations, the sim, sRPC, SPM, device and attestation counters the CRONUS rows'; nothing is served, " +
		"so the serving counts are 0")
	return rep, nil
}
