package listsched_test

import (
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/trace"
)

func TestReplicationNeverHurts(t *testing.T) {
	for _, bench := range []string{"bzip2", "vpr", "gzip"} {
		in, _ := prepare(t, bench, 5000)
		pri := listsched.NewOracle(in)
		for _, clusters := range []int{2, 4, 8} {
			cfg := listsched.ConfigFor(machine.NewConfig(clusters))
			plain, err := listsched.Run(in, cfg, pri)
			if err != nil {
				t.Fatal(err)
			}
			repl, err := listsched.RunReplicated(in, cfg, pri)
			if err != nil {
				t.Fatal(err)
			}
			// Replication explores a superset of schedules; the greedy
			// heuristic may differ slightly, but should never be much
			// worse and usually at least matches.
			if float64(repl.Makespan) > float64(plain.Makespan)*1.02 {
				t.Errorf("%s/%d: replication lengthened the schedule: %d vs %d",
					bench, clusters, repl.Makespan, plain.Makespan)
			}
		}
	}
}

// TestReplicationLegality runs CheckReplicated on both replicated paths:
// the RunReplicated oracle and the pooled ScheduleReplicated fast path.
func TestReplicationLegality(t *testing.T) {
	in, _ := prepare(t, "bzip2", 4000)
	pri := listsched.NewOracle(in)
	sched := listsched.NewScheduler()
	defer sched.Recycle()
	for _, clusters := range []int{2, 4, 8} {
		cfg := listsched.ConfigFor(machine.NewConfig(clusters))
		oracle, err := listsched.RunReplicated(in, cfg, pri)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := sched.ScheduleReplicated(in, []listsched.Variant{{Config: cfg, Pri: pri}})
		if err != nil {
			t.Fatal(err)
		}
		if clusters == 8 && len(oracle.Replicas) == 0 {
			t.Fatal("no replicas on 8x1w; the legality checks below cover nothing")
		}
		if err := listsched.CheckReplicated(in, cfg, oracle); err != nil {
			t.Errorf("%dx oracle path: %v", clusters, err)
		}
		if err := listsched.CheckReplicated(in, cfg, fast[0]); err != nil {
			t.Errorf("%dx fast path: %v", clusters, err)
		}
	}
}

// TestCheckReplicatedRejectsCorruption guards the replicated verifier:
// perturbing a valid replicated schedule must trip CheckReplicated.
func TestCheckReplicatedRejectsCorruption(t *testing.T) {
	in, _ := prepare(t, "bzip2", 4000)
	cfg := listsched.ConfigFor(machine.NewConfig(8))
	base, err := listsched.RunReplicated(in, cfg, listsched.NewOracle(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Replicas) == 0 {
		t.Fatal("no replicas to corrupt")
	}
	tr := in.Trace
	// used is the first replica whose value some consumer on its cluster
	// starts before the forwarded original could arrive: dropping it must
	// surface as an operand violation.
	used := -1
	for j, r := range base.Replicas {
		for i := r.Seq + 1; i < int64(tr.Len()) && used < 0; i++ {
			if base.Cluster[i] != r.Cluster {
				continue
			}
			for _, p := range tr.Producers(int(i), nil) {
				if int64(p) == r.Seq && base.Start[i] < base.Complete[r.Seq]+int64(cfg.Fwd) {
					used = j
				}
			}
		}
		if used >= 0 {
			break
		}
	}
	if used < 0 {
		t.Fatal("no replica is read early; the dropped-replica case covers nothing")
	}
	mem := -1
	for i := range tr.Insts {
		if tr.Insts[i].Op.IsMem() {
			mem = i
			break
		}
	}
	corrupt := func(mutate func(rs *listsched.ReplicatedSchedule)) error {
		// RunReplicated is deterministic: a fresh run is a deep copy.
		c, err := listsched.RunReplicated(in, cfg, listsched.NewOracle(in))
		if err != nil {
			t.Fatal(err)
		}
		mutate(c)
		return listsched.CheckReplicated(in, cfg, c)
	}
	if err := corrupt(func(rs *listsched.ReplicatedSchedule) {}); err != nil {
		t.Fatalf("unmutated copy rejected: %v", err)
	}
	cases := map[string]func(rs *listsched.ReplicatedSchedule){
		"replica latency": func(rs *listsched.ReplicatedSchedule) { rs.Replicas[0].Complete++ },
		"replica early": func(rs *listsched.ReplicatedSchedule) {
			rs.Replicas[0].Start = -1
			rs.Replicas[0].Complete = -1 + in.Latency[rs.Replicas[0].Seq]
		},
		"replica cluster range": func(rs *listsched.ReplicatedSchedule) { rs.Replicas[0].Cluster = int16(cfg.Clusters) },
		"replica on own cluster": func(rs *listsched.ReplicatedSchedule) {
			rs.Replicas[0].Cluster = rs.Cluster[rs.Replicas[0].Seq]
		},
		"memory replica": func(rs *listsched.ReplicatedSchedule) {
			rs.Replicas = append(rs.Replicas, listsched.Replica{Seq: int64(mem),
				Cluster: (rs.Cluster[mem] + 1) % int16(cfg.Clusters), Start: rs.Start[mem],
				Complete: rs.Start[mem] + in.Latency[mem]})
		},
		"dropped replica": func(rs *listsched.ReplicatedSchedule) {
			rs.Replicas = append(rs.Replicas[:used:used], rs.Replicas[used+1:]...)
		},
		"overbooked slot": func(rs *listsched.ReplicatedSchedule) {
			// Duplicate a replica: 8x1w clusters have one issue slot.
			rs.Replicas = append(rs.Replicas, rs.Replicas[0])
		},
		"makespan":      func(rs *listsched.ReplicatedSchedule) { rs.Makespan++ },
		"cross recount": func(rs *listsched.ReplicatedSchedule) { rs.CrossEdges++ },
	}
	for name, mutate := range cases {
		if corrupt(mutate) == nil {
			t.Errorf("%s corruption passed CheckReplicated", name)
		}
	}
}

func TestReplicationHelpsConvergence(t *testing.T) {
	// A hand-built convergence kernel on 1-wide clusters: two chains fed
	// by one shared producer, converging at a dyadic join. Forwarding
	// the shared producer costs fwd cycles; replicating it does not.
	var insts []isa.Inst
	for rep := 0; rep < 60; rep++ {
		insts = append(insts,
			isa.Inst{PC: 0x100, Op: isa.IntALU, Dst: 1, Src: [2]isa.Reg{1, isa.NoReg}},
			isa.Inst{PC: 0x104, Op: isa.IntALU, Dst: 2, Src: [2]isa.Reg{1, isa.NoReg}},
			isa.Inst{PC: 0x108, Op: isa.IntALU, Dst: 3, Src: [2]isa.Reg{1, isa.NoReg}},
			isa.Inst{PC: 0x10c, Op: isa.IntALU, Dst: 4, Src: [2]isa.Reg{2, 3}},
		)
	}
	insts[0].Src[0] = isa.NoReg
	tr := trace.Rebuild(insts)
	n := tr.Len()
	in := listsched.Input{Trace: tr, Release: make([]int64, n),
		Latency: make([]int64, n), Mispredicted: make([]bool, n),
		Complete: make([]int64, n)}
	for i := range in.Latency {
		in.Latency[i] = 1
	}
	cfg := listsched.ConfigFor(machine.NewConfig(8))
	pri := listsched.NewOracle(in)
	plain, err := listsched.Run(in, cfg, pri)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := listsched.RunReplicated(in, cfg, pri)
	if err != nil {
		t.Fatal(err)
	}
	if repl.Makespan > plain.Makespan {
		t.Errorf("replication did not help convergence: %d vs %d",
			repl.Makespan, plain.Makespan)
	}
}
