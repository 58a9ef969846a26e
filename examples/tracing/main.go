// Tracing: observe the simulator's interrupt routing decisions — run a
// short SAIs configuration with lifecycle spans recorded, print the
// last spans, and export the whole run in Chrome's trace-event JSON
// (open chrome://tracing or https://ui.perfetto.dev and load the file).
//
// Run with:
//
//	go run ./examples/tracing
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"sais/cluster"
	"sais/internal/irqsched"
	"sais/internal/units"
)

func main() {
	cfg := cluster.DefaultConfig()
	cfg.Policy = irqsched.PolicySourceAware
	cfg.Servers = 4
	cfg.BytesPerProc = 2 * units.MiB

	res, spans, err := cluster.RunSpannedContext(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run: %.1f MB/s under %s; %d spans captured\n\n",
		float64(res.Bandwidth)/1e6, res.Policy, spans.Len())
	for _, s := range spans.Last(10) {
		fmt.Println(s)
	}

	out, err := os.CreateTemp("", "sais-trace-*.json")
	if err != nil {
		log.Fatal(err)
	}
	werr := spans.ExportChrome(out)
	if cerr := out.Close(); werr == nil {
		werr = cerr // a dropped close error would hide a truncated trace
	}
	if werr != nil {
		log.Fatal(werr)
	}
	fmt.Printf("\nChrome trace written to %s (load in chrome://tracing)\n", out.Name())
}
