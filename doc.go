// Package dsarp is a from-scratch Go reproduction of "Improving DRAM
// Performance by Parallelizing Refreshes with Accesses" (Chang, Lee,
// Chishti, Alameldeen, Wilkerson, Kim, Mutlu — HPCA 2014): the DARP and
// SARP refresh mechanisms, every baseline the paper compares against, and
// the full simulation substrate (cycle-level DRAM timing model, FR-FCFS
// memory controller, trace-driven cores, LLC, workload generator, power
// model) needed to regenerate the paper's evaluation.
//
// Start with README.md for usage and the package map. The root package
// holds only the benchmark harness (bench_test.go), one benchmark per paper
// table/figure.
package dsarp
