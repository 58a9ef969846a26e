// Command memsim runs the §VI RAM-disk experiment as a real in-process
// memory benchmark: Si-SAIs (single-pass reader+combiner, shared cache)
// versus Si-Irqbalance (split reader/combiner with a staging copy), per
// application count.
//
// Example:
//
//	memsim -apps 1,2,4,8 -requests 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sais/internal/memsim"
	"sais/internal/metrics"
	"sais/internal/units"
)

func main() {
	def := memsim.DefaultConfig()
	var (
		appsList = flag.String("apps", "1,2,4,8", "comma-separated application counts to sweep")
		servers  = flag.Int("servers", def.Servers, "in-memory I/O nodes")
		requests = flag.Int("requests", def.Requests, "requests per application")
		transfer = flag.Int("transfer", int(def.Transfer/units.MiB), "transfer size in MiB")
		repeats  = flag.Int("repeats", 3, "measured repetitions (best-of)")
	)
	flag.Parse()

	fmt.Printf("%-8s %14s %14s %14s %10s\n", "apps", "si-irqbalance", "si-sais", "si-sais-pair", "speed-up")
	for _, tok := range strings.Split(*appsList, ",") {
		apps, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || apps <= 0 {
			fmt.Fprintf(os.Stderr, "memsim: bad app count %q\n", tok)
			os.Exit(1)
		}
		cfg := def
		cfg.Servers, cfg.Requests, cfg.Apps = *servers, *requests, apps
		cfg.Transfer = units.Bytes(*transfer) * units.MiB
		// Warm-up pass, then best-of-N to suppress scheduling noise.
		if _, err := memsim.RunSiSAIs(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "memsim:", err)
			os.Exit(1)
		}
		var bestS, bestI, bestP units.Rate
		for r := 0; r < *repeats; r++ {
			s, err := memsim.RunSiSAIs(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memsim:", err)
				os.Exit(1)
			}
			i, err := memsim.RunSiIrqbalance(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memsim:", err)
				os.Exit(1)
			}
			pr, err := memsim.RunSiSAIsPair(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memsim:", err)
				os.Exit(1)
			}
			if s.Checksum != i.Checksum || s.Checksum != pr.Checksum {
				fmt.Fprintln(os.Stderr, "memsim: checksum mismatch between variants")
				os.Exit(1)
			}
			if s.Rate > bestS {
				bestS = s.Rate
			}
			if i.Rate > bestI {
				bestI = i.Rate
			}
			if pr.Rate > bestP {
				bestP = pr.Rate
			}
		}
		fmt.Printf("%-8d %11.1f MB/s %9.1f MB/s %9.1f MB/s %10s\n",
			apps, float64(bestI)/1e6, float64(bestS)/1e6, float64(bestP)/1e6,
			metrics.Percent(metrics.Speedup(float64(bestS), float64(bestI))))
	}
}
