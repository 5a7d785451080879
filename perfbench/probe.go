package main

import (
	"fmt"
	"os"
	"path/filepath"

	"tcodm/internal/core"
)

// probeRedo reproduces the bulk-load crash-recovery fault from outside the
// program. Each trial loads a personnel store with SyncOnCommit into a
// fresh directory (seed = trial number), crashes before any checkpoint and
// reopens it. It runs the trials at the point-read fixture's size and at
// tcoload's default size (500 employees), and prints per size how many
// reopens failed and the first error; a panic inside core.Open counts as a
// failure.
func probeRedo(dir string, trials int) error {
	runDir := filepath.Join(dir, fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	tcoloadParams := pointParams
	tcoloadParams.Emps = 500
	for _, size := range []struct {
		name string
		w    *workloadSpec
	}{{"point-read fixture (150 employees)", workloads["point-read"]}, {"tcoload default (500 employees)", &workloadSpec{params: tcoloadParams}}} {
		failed := 0
		var first error
		for i := 1; i <= trials; i++ {
			trial := filepath.Join(runDir, fmt.Sprintf("trial-%d", i))
			if err := os.MkdirAll(trial, 0o755); err != nil {
				return err
			}
			path := filepath.Join(trial, "personnel.tdb")
			r := &runner{w: size.w, seed: int64(i)}
			db, _, _, err := r.load(path, true)
			if err != nil {
				return err
			}
			if err := db.Crash(); err != nil {
				return err
			}
			if err := reopen(path); err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
			if err := os.RemoveAll(trial); err != nil {
				return err
			}
		}
		fmt.Printf("redo probe, %s: reopen after a crash that followed a synced bulk load failed in %d of %d trials\n", size.name, failed, trials)
		if first != nil {
			fmt.Printf("  first error: %v\n", first)
		}
	}
	return nil
}

// reopen opens and closes the store at path, reporting a panic inside
// core.Open as an error.
func reopen(path string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core.Open panicked: %v", p)
		}
	}()
	db, err := core.Open(core.Options{Path: path, SyncOnCommit: true})
	if err != nil {
		return err
	}
	return db.Close()
}
