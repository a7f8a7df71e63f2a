package serve_test

import (
	"errors"
	"fmt"
	"testing"

	"cronus/internal/cluster"
	"cronus/internal/core"
	"cronus/internal/elastic"
	"cronus/internal/gpu"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// clusterConfig is the common two-node test load: four tenants hashed over
// two nodes (HashBound 1.0 forces an even 2/2 split), eight partitions in
// four-per-node blocks, eight kernel shards in four-per-node groups.
func clusterConfig() serve.Config {
	return serve.Config{
		Seed:          23,
		Window:        4 * sim.Millisecond,
		Policy:        serve.RoundRobin,
		MaxBatch:      4,
		BatchWindow:   40 * sim.Microsecond,
		GPUPartitions: 8,
		GPUFlopsPerNs: 400,
		Shards:        8,
		Nodes:         2,
		HashBound:     1.0,
		KeepRequests:  true,
		Tenants: []serve.TenantSpec{
			{Name: "alpha", Arrival: serve.FixedRate, Rate: 40000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}}},
			{Name: "beta", Arrival: serve.Poisson, Rate: 20000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}}},
			{Name: "gamma", Arrival: serve.FixedRate, Rate: 30000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}}},
			{Name: "delta", Arrival: serve.Poisson, Rate: 15000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}}},
		},
	}
}

func clusterTotals(t *testing.T, res *serve.Result) {
	t.Helper()
	for _, tr := range res.Tenants {
		if tr.Offered != tr.Admitted+tr.Shed {
			t.Errorf("tenant %s: offered %d != admitted %d + shed %d", tr.Name, tr.Offered, tr.Admitted, tr.Shed)
		}
		if tr.Admitted != tr.Completed+tr.Failed {
			t.Errorf("tenant %s: admitted %d != completed %d + failed %d", tr.Name, tr.Admitted, tr.Completed, tr.Failed)
		}
		if tr.Duplicates != 0 {
			t.Errorf("tenant %s: %d duplicate completions", tr.Name, tr.Duplicates)
		}
	}
	if res.SplitBrain != 0 {
		t.Errorf("no-split-brain invariant violated %d times", res.SplitBrain)
	}
}

// TestClusterPlacement pins the boot-time global placement: with HashBound
// 1.0 the four tenants must split two-and-two over the nodes, every tenant
// must be served, and the run must satisfy conservation and no-split-brain.
func TestClusterPlacement(t *testing.T) {
	res, err := serve.Run(clusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, res)
	if res.Nodes != 2 {
		t.Fatalf("Result.Nodes = %d, want 2", res.Nodes)
	}
	loads := map[int]int{}
	for _, tr := range res.Tenants {
		loads[tr.Home]++
		if tr.Completed == 0 {
			t.Errorf("tenant %s (home n%d) served nothing", tr.Name, tr.Home)
		}
		if tr.Rehomed {
			t.Errorf("tenant %s rehomed without any fault", tr.Name)
		}
	}
	if loads[0] != 2 || loads[1] != 2 {
		t.Errorf("bounded-load split is %v, want 2 tenants per node", loads)
	}
}

// TestClusterDeterminism pins the acceptance criterion: a 2-node run replays
// byte-identically across repeats and across -parallel on/off, with and
// without a scheduled node crash.
func TestClusterDeterminism(t *testing.T) {
	for _, fault := range []bool{false, true} {
		mk := func(parallel bool) serve.Config {
			cfg := clusterConfig()
			cfg.Parallel = parallel
			if fault {
				cfg.GPUFlopsPerNs = 100
				cfg.NodeFaults = []cluster.Fault{
					{Kind: cluster.NodeCrash, Node: 1, At: 1500 * sim.Microsecond},
				}
			}
			return cfg
		}
		ref, err := serve.Run(mk(false))
		if err != nil {
			t.Fatal(err)
		}
		refReport, refReqs := ref.Report(), requestsDigest(t, ref)
		for _, tc := range []struct {
			name     string
			parallel bool
		}{
			{"rerun", false},
			{"parallel", true},
		} {
			res, err := serve.Run(mk(tc.parallel))
			if err != nil {
				t.Fatalf("fault=%v %s: %v", fault, tc.name, err)
			}
			if got := res.Report(); got != refReport {
				t.Errorf("fault=%v %s: report diverged\n--- ref ---\n%s--- got ---\n%s",
					fault, tc.name, refReport, got)
			}
			if got := requestsDigest(t, res); got != refReqs {
				t.Errorf("fault=%v %s: per-request records diverged", fault, tc.name)
			}
		}
	}
}

// clusterBoot boots cfg.Nodes node platforms sized for cfg, builds the
// serving plane over them, and hands both to body inside the simulation —
// serve.Run's cluster path with the setup exposed to the test.
func clusterBoot(t *testing.T, cfg serve.Config, body func(p *sim.Proc, plats []*core.Platform, srv *serve.Server)) {
	t.Helper()
	pcfg := core.DefaultConfig()
	pcfg.GPUs = cfg.GPUPartitions / cfg.Nodes
	pcfg.NPUs = 0
	pcfg.MPS = true
	var bodyErr error
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		plats, err := cluster.BootNodes(p, cfg.Nodes, pcfg)
		if err != nil {
			bodyErr = err
			return
		}
		srv, err := serve.NewCluster(p, plats, cfg)
		if err != nil {
			bodyErr = err
			return
		}
		body(p, plats, srv)
	})
	err := k.Run()
	k.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if bodyErr != nil {
		t.Fatal(bodyErr)
	}
}

// liveEnclaves counts the live session (CPU) and CUDA (GPU partition)
// mEnclaves across every node.
func liveEnclaves(plats []*core.Platform) (sessions, cuda int) {
	for _, pl := range plats {
		sessions += len(pl.CPUOS.EM.Measurements())
		for _, g := range pl.GPUs {
			cuda += len(g.OS.EM.Measurements())
		}
	}
	return sessions, cuda
}

// TestClusterSetupHomeOnly pins setup proportional to use: NewCluster opens
// one session and one replica per home-node partition for each tenant, and
// nothing on the other nodes, so doubling the node count at a fixed tenant
// count and partitions per node opens exactly as much as before.
func TestClusterSetupHomeOnly(t *testing.T) {
	const tenants, ppn = 4, 2
	for _, nodes := range []int{2, 4} {
		cfg := clusterConfig()
		cfg.Nodes = nodes
		cfg.GPUPartitions = ppn * nodes
		cfg.Shards = ppn * nodes
		clusterBoot(t, cfg, func(p *sim.Proc, plats []*core.Platform, srv *serve.Server) {
			sessions, cuda := liveEnclaves(plats)
			if sessions != tenants || cuda != tenants*ppn {
				t.Errorf("%d nodes: setup opened %d sessions and %d CUDA mEnclaves, want %d and %d",
					nodes, sessions, cuda, tenants, tenants*ppn)
			}
		})
	}
}

// openCost measures, on a freshly booted node, the virtual time one tenant
// session plus one serving replica enclave (lanes, zero-copy arena and
// staging buffers as the cluster plane opens them) take to open: the least
// a tenant rehomed onto a cold node waits before its first dispatch there.
func openCost(t *testing.T, cfg serve.Config) sim.Duration {
	t.Helper()
	var cost sim.Duration
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		start := p.Now()
		sess, err := pl.NewSession(p, "probe")
		if err != nil {
			return err
		}
		inCap := 1024 * cfg.MaxBatch
		conn, err := sess.OpenCUDA(p, core.CUDAOptions{
			Cubin: gpu.BuildCubin("serve_infer"), Partition: "gpu-part0", Name: "probe/r0.1",
			Rings: 2, ZCPayload: inCap,
		})
		if err != nil {
			return err
		}
		if _, err := conn.MemAlloc(p, 4); err != nil {
			return err
		}
		if _, err := conn.MemAlloc(p, uint64(inCap)); err != nil {
			return err
		}
		cost = sim.Duration(p.Now() - start)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

// TestClusterNodeCrash kills node 1 mid-window under a saturating load: every
// tenant homed there must re-hash to node 0 and drain exactly once through
// the completion accounting (in-flight batches replayed, zero duplicates,
// zero split brain), and the crash must land in the node event log. Node 0
// was cold for the victims, so nothing of theirs may complete there before
// the crash instant plus the cost of opening a session and a replica.
func TestClusterNodeCrash(t *testing.T) {
	cfg := clusterConfig()
	cfg.GPUFlopsPerNs = 100 // slow devices keep lanes saturated at the crash
	crashAt := 1500 * sim.Microsecond
	cfg.NodeFaults = []cluster.Fault{
		{Kind: cluster.NodeCrash, Node: 1, At: crashAt},
	}
	var (
		res   *serve.Result
		crash sim.Time
	)
	clusterBoot(t, cfg, func(p *sim.Proc, _ []*core.Platform, srv *serve.Server) {
		crash = p.Now() + sim.Time(crashAt)
		var err error
		if res, err = srv.Serve(p); err != nil {
			t.Error(err)
		}
	})
	if res == nil {
		t.FailNow()
	}
	clusterTotals(t, res)
	open := openCost(t, cfg)
	if open <= 0 {
		t.Fatalf("opening a session and a replica cost %s of virtual time", open)
	}
	first := map[string]sim.Time{}
	for _, r := range res.Requests {
		if r.Err == nil && r.Done > crash && (first[r.Tenant] == 0 || r.Done < first[r.Tenant]) {
			first[r.Tenant] = r.Done
		}
	}
	victims, replays := 0, uint64(0)
	for _, tr := range res.Tenants {
		if tr.Home == 1 {
			victims++
			if !tr.Rehomed {
				t.Errorf("victim tenant %s not rehomed after its node crashed", tr.Name)
			}
			replays += tr.Replayed
			if tr.Completed == 0 {
				t.Errorf("victim tenant %s completed nothing on the survivor", tr.Name)
			}
			if f := first[tr.Name]; f <= crash+sim.Time(open) {
				t.Errorf("victim tenant %s first completed on its new home %s after the crash, within the %s open cost",
					tr.Name, sim.Duration(f-crash), open)
			}
		} else if tr.Rehomed {
			t.Errorf("survivor tenant %s rehomed", tr.Name)
		}
	}
	if victims == 0 {
		t.Fatal("no tenant homed on the crashed node — placement degenerate")
	}
	if replays == 0 {
		t.Errorf("no in-flight replays across a node crash under saturation:\n%s", res.Report())
	}
	if len(res.NodeEvents) == 0 {
		t.Error("node crash left no node events")
	}
}

// TestClusterFleetMigration runs a fleet-shaped plane — four nodes, sixteen
// attested tenants, a planned same-node migration and a later node crash —
// and checks the migration still completes while most tenants' replicas on
// the source node are cold, and that the crash victims rehome onto cold
// nodes with nothing lost, duplicated or shed.
func TestClusterFleetMigration(t *testing.T) {
	window := 20 * sim.Millisecond
	cfg := serve.Config{
		Seed:            3,
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
		NodeFaults:      []cluster.Fault{{Kind: cluster.NodeCrash, Node: 1, At: window / 2}},
		Migrations: []serve.Migration{
			{At: window / 4, From: elastic.Endpoint{Node: 2, Part: 1}, To: elastic.Endpoint{Node: 2, Part: 0}},
		},
	}
	for ti := 0; ti < 16; ti++ {
		cfg.Tenants = append(cfg.Tenants, serve.TenantSpec{
			Name: fmt.Sprintf("fleet%02d", ti), Arrival: serve.Poisson, Rate: 40000, QueueCap: 256,
			Mix: []serve.WorkClass{
				{Name: "resnet18", Weight: 2, Graph: tvm.ResNet18()},
				{Name: "resnet50", Weight: 1, Graph: tvm.ResNet50()},
			},
		})
	}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, res)
	if res.Elastic == nil || res.Elastic.Migrations != 1 {
		t.Fatalf("fleet migration did not complete:\n%s", res.Report())
	}
	rehomed := 0
	for _, tr := range res.Tenants {
		if tr.Rehomed {
			rehomed++
		}
		if tr.Shed != 0 || tr.Failed != 0 {
			t.Errorf("tenant %s shed %d and failed %d requests", tr.Name, tr.Shed, tr.Failed)
		}
	}
	if rehomed == 0 {
		t.Errorf("no tenant rehomed off the crashed node:\n%s", res.Report())
	}
}

// TestClusterNetPartition cuts node 1's link for a window mid-run: dispatches
// into the cut fail with the typed *cluster.NetPartitionedError, completions
// in flight at the cut park until the heal instant, and after the heal the
// tenant serves again — with conservation intact throughout.
func TestClusterNetPartition(t *testing.T) {
	cfg := clusterConfig()
	cfg.NodeFaults = []cluster.Fault{
		{Kind: cluster.NetPartition, Node: 1, At: 1 * sim.Millisecond, Until: 2 * sim.Millisecond},
	}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, res)
	partitioned := 0
	for _, r := range res.Requests {
		if r.Err == nil {
			continue
		}
		var npe *cluster.NetPartitionedError
		if errors.As(r.Err, &npe) {
			partitioned++
			if npe.Node != 1 {
				t.Errorf("partition error names node %d, want 1", npe.Node)
			}
		} else {
			t.Errorf("unexpected error type under net-partition: %v", r.Err)
		}
	}
	if partitioned == 0 {
		t.Errorf("no typed NetPartitionedError failures during a 1ms cut:\n%s", res.Report())
	}
	for _, tr := range res.Tenants {
		if tr.Home == 1 && tr.Completed == 0 {
			t.Errorf("tenant %s on the partitioned node never completed (heal drain broken)", tr.Name)
		}
		if tr.Rehomed {
			t.Errorf("tenant %s rehomed on a transient partition", tr.Name)
		}
	}
}

// TestClusterSlowLink multiplies node 1's link latency for the whole window
// and checks the victims' tail latency moves while node-0 tenants' rows stay
// byte-identical to the unfaulted run.
func TestClusterSlowLink(t *testing.T) {
	base, err := serve.Run(clusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig()
	cfg.NodeFaults = []cluster.Fault{
		{Kind: cluster.SlowLink, Node: 1, Mult: 8, At: 1, Until: cfg.Window},
	}
	slow, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, slow)
	for i := range base.Tenants {
		b, s := base.Tenants[i], slow.Tenants[i]
		switch b.Home {
		case 1:
			if s.P95NS <= b.P95NS {
				t.Errorf("tenant %s on the slowed link: p95 %.0f <= baseline %.0f", b.Name, s.P95NS, b.P95NS)
			}
		default:
			if s.P50NS != b.P50NS || s.Completed != b.Completed {
				t.Errorf("tenant %s off the slowed link perturbed: p50 %.0f vs %.0f", b.Name, s.P50NS, b.P50NS)
			}
		}
	}
}

// TestClusterValidation pins the typed refusals of cluster mode.
func TestClusterValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*serve.Config)
	}{
		{"no-shards", func(c *serve.Config) { c.Shards = 0 }},
		{"shards-indivisible", func(c *serve.Config) { c.Shards = 5 }},
		{"partitions-indivisible", func(c *serve.Config) { c.GPUPartitions = 7 }},
		{"too-many-nodes", func(c *serve.Config) { c.Nodes = 17 }},
		{"fault-bad-node", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: cluster.NodeCrash, Node: 5, At: sim.Millisecond}}
		}},
		{"fault-bad-window", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: cluster.NetPartition, Node: 1, At: sim.Millisecond, Until: sim.Microsecond}}
		}},
		{"fault-bad-mult", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: cluster.SlowLink, Node: 1, At: 1, Until: sim.Millisecond, Mult: 0.5}}
		}},
		{"fault-unknown-kind", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: "meteor-strike", Node: 0, At: 1}}
		}},
	} {
		cfg := clusterConfig()
		tc.mutate(&cfg)
		if _, err := serve.Run(cfg); err == nil {
			t.Errorf("%s: cluster config accepted, want a validation error", tc.name)
		}
	}
}

// TestCheckShardLayout pins the CLI-facing divisibility check (PR 8
// satellite): a -shards value that does not divide the partition count is a
// typed usage error, as is any shard/partition count that does not divide
// across nodes.
func TestCheckShardLayout(t *testing.T) {
	for _, tc := range []struct {
		shards, partitions, nodes int
		wantErr                   bool
	}{
		{0, 2, 0, false}, // classic plane: no constraint
		{1, 3, 0, false}, // still classic
		{2, 2, 0, false}, // even split
		{4, 8, 0, false}, // even split
		{4, 2, 0, true},  // partitions do not divide over shards
		{3, 8, 0, true},  // 8 % 3 != 0
		{8, 8, 2, false}, // cluster, even everywhere
		{4, 8, 2, false}, // 2 shards + 4 partitions per node
		{4, 8, 3, true},  // shards do not divide over nodes
		{8, 10, 2, true}, // partitions divide over nodes but not shards
		{2, 6, 4, true},  // partitions do not divide over nodes
		{0, 8, 2, true},  // cluster requires the sharded plane
	} {
		err := serve.CheckShardLayout(tc.shards, tc.partitions, tc.nodes)
		if (err != nil) != tc.wantErr {
			t.Errorf("CheckShardLayout(%d, %d, %d) = %v, wantErr %v",
				tc.shards, tc.partitions, tc.nodes, err, tc.wantErr)
		}
		if err != nil {
			var sle *serve.ShardLayoutError
			if !errors.As(err, &sle) {
				t.Errorf("CheckShardLayout(%d, %d, %d): error is %T, want *ShardLayoutError",
					tc.shards, tc.partitions, tc.nodes, err)
			}
		}
	}
}
