// NDRange example: the Section III-A design choice. The same workload is
// run through the paper's chosen Task formulation (each work-item a fully
// decoupled pipeline with its own stream and burst engine) and through
// the .cl NDRange alternative (work-groups mapped to pipelines,
// work-items time-multiplexed inside). Compute cycles match at equal
// pipeline counts and are invariant to the work-group granularity — but
// the NDRange form scatters every store, which is why the paper builds
// the Task version.
package main

import (
	"fmt"
	"log"

	"github.com/decwi/decwi/internal/core"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

func main() {
	const scenarios = 65536
	base := core.Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
		Scenarios: scenarios, Sectors: 1, SectorVariance: 1.39, Seed: 11,
	}

	// Task formulation: 4 decoupled pipelines.
	taskCfg := base
	taskCfg.WorkItems = 4
	eng, err := core.NewEngine(taskCfg)
	if err != nil {
		log.Fatal(err)
	}
	task, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	var bursts int64
	for _, s := range task.PerWI {
		bursts += s.Bursts
	}
	fmt.Printf("Task (.c kernel, Listing 1): 4 pipelines, %d cycles on the slowest,\n", task.MaxWorkItemCycles())
	fmt.Printf("  %d memory bursts issued (%d values = %d 512-bit words each)\n\n",
		bursts, eng.Config().BurstRNs, eng.Config().BurstRNs/core.WordRNs)

	// NDRange formulation at several work-group granularities — same
	// number of pipelines (work-groups), different localSize slicing.
	for _, localSize := range []int{1, 8, 64} {
		res, err := core.RunNDRange(core.NDRangeConfig{
			Config: base, WorkGroups: 4, LocalSize: localSize,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("NDRange (.cl kernel): 4 work-groups × localSize %-3d → %d cycles, %d scattered stores\n",
			localSize, res.MaxCUCycles(), res.ScatteredStores())
	}
	fmt.Println()
	fmt.Println("compute cycles are set by the number of pipelines, not the work-group")
	fmt.Println("granularity (Section III-A) — but only the Task form can fill bursts.")
}
