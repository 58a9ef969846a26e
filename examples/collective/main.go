// Collective: two-phase (ROMIO-style) collective reads versus
// independent reads, under both interrupt-scheduling policies.
//
// Collective I/O replaces many small interleaved requests with a few
// large contiguous file-domain reads by aggregator processes, then
// redistributes the data between cores — a guaranteed cache-to-cache
// exchange. That redistribution is exactly the data movement SAIs
// eliminates on the independent path, so the two optimizations overlap:
// under SAIs, independent I/O needs no redistribution at all.
//
// Run with:
//
//	go run ./examples/collective
package main

import (
	"fmt"
	"log"

	"sais/internal/client"
	"sais/internal/collective"
	"sais/internal/irqsched"
	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

const (
	servers = 16
	procs   = 4
	perProc = 4 * units.MiB
)

// build assembles a single-client cluster.
func build(policy irqsched.PolicyKind) (*sim.Engine, *client.Node) {
	eng := sim.NewEngine()
	// Node ids: client 1, MDS 50, servers from 100.
	fab := netsim.NewFabric(eng, 20*units.Microsecond, 100+servers)
	ccfg := client.DefaultConfig(1, 3*units.Gigabit, policy)
	ccfg.MDS = 50
	node := client.MustNew(eng, fab, ccfg)
	ids := make([]netsim.NodeID, servers)
	rnd := rng.New(1)
	for i := range ids {
		ids[i] = netsim.NodeID(100 + i)
		scfg := pfs.DefaultServerConfig(3 * units.Gigabit)
		pfs.NewServer(eng, fab, ids[i], scfg, rnd)
	}
	layout := pfs.Layout{StripSize: 64 * units.KiB, Servers: ids, Size: units.Bytes(procs) * perProc}
	pfs.NewMetadataServer(eng, fab, 50, pfs.DefaultMetadataConfig(units.Gigabit),
		func(pfs.FileID) pfs.Layout { return layout })
	return eng, node
}

func runCollective(policy irqsched.PolicyKind, aggregators int) (units.Time, units.Bytes) {
	eng, node := build(policy)
	ps := make([]*client.Proc, procs)
	for i := range ps {
		ps[i] = node.NewProc(i, i)
	}
	var redistributed units.Bytes
	eng.At(0, func(units.Time) {
		err := collective.Read(eng, node, ps, 1, 0, perProc,
			collective.Config{Aggregators: aggregators},
			func(r *collective.Result) { redistributed = r.Redistributed })
		if err != nil {
			log.Fatal(err)
		}
	})
	return eng.RunUntilIdle(), redistributed
}

func runIndependent(policy irqsched.PolicyKind) units.Time {
	eng, node := build(policy)
	for i := 0; i < procs; i++ {
		p := node.NewProc(i, i)
		i := i
		eng.At(0, func(units.Time) {
			p.Read(1, units.Bytes(i)*perProc, perProc, nil)
		})
	}
	return eng.RunUntilIdle()
}

func main() {
	fmt.Printf("%-12s %-22s %12s %14s\n", "policy", "access mode", "makespan", "redistributed")
	for _, policy := range []irqsched.PolicyKind{irqsched.PolicyIrqbalance, irqsched.PolicySourceAware} {
		ti := runIndependent(policy)
		fmt.Printf("%-12s %-22s %12v %14s\n", policy, "independent", ti, "-")
		for _, aggs := range []int{1, 2, 4} {
			tc, moved := runCollective(policy, aggs)
			fmt.Printf("%-12s %-22s %12v %14v\n", policy,
				fmt.Sprintf("collective (%d aggs)", aggs), tc, moved)
		}
	}
	fmt.Println("\nUnder irqbalance, aggregation changes where the migration damage")
	fmt.Println("lands; under SAIs the independent path has no client-side data")
	fmt.Println("movement left to save, so phase 2 is pure overhead.")
}
