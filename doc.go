// Package sais is a Go reproduction of "A Source-aware Interrupt
// Scheduling for Modern Parallel I/O Systems" (Zou, Sun, Ma, Duan —
// IPPS 2012): a deterministic discrete-event simulation of a PVFS-style
// parallel I/O cluster whose client-side interrupt scheduling can be
// switched between the paper's policies (round-robin, dedicated-core,
// irqbalance, and the source-aware SAIs) plus several extensions.
//
// The public entry point is the cluster package (assemble and run a
// simulated cluster). cmd/saisim is the one command line: `saisim
// name=value ...` runs one config, and `saisim run` regenerates the
// paper's figures from the study files under studies/. The root package
// holds the benchmark harness: how fast the paper's grid regenerates,
// simulator throughput, and sharded scaling.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results.
package sais
