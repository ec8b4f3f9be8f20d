// Package prof wires the standard runtime/pprof file profiles into the
// repo's CLIs (`-cpuprofile` / `-memprofile` on dtnsim and
// experiments), the entry point of the replay-performance workflow
// described in DESIGN.md: profile, optimize, then gate with the bench
// gate of scripts/check.sh.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath (empty string disables
// it) and returns a stop function that ends the CPU profile and writes
// a heap profile to memPath (empty string disables that). Call stop
// exactly once, after the measured workload finished.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			// Up-to-date allocation statistics need a completed GC cycle.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
