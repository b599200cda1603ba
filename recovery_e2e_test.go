package manimal_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"manimal"
	"manimal/internal/faultinject"
	"manimal/internal/journal"
	"manimal/internal/workload"
)

// crashCountProgram is deterministic per input: with one reducer its
// output file is byte-identical run over run, which is what lets the
// recovery test compare files instead of multisets.
const crashCountProgram = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Int("rank") % 10, 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	count := 0
	for values.Next() {
		count = count + values.Int()
	}
	ctx.Emit(key, count)
}
`

func crashSpec(name, data, out string, delay time.Duration) manimal.JobSpec {
	prog, err := manimal.ParseProgram("count.go", crashCountProgram)
	if err != nil {
		panic(err)
	}
	return manimal.JobSpec{
		Name:         name,
		Inputs:       []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath:   out,
		Conf:         manimal.Conf{"threshold": manimal.Int(5000)},
		NumReducers:  1, // single reducer => byte-identical output
		StartupDelay: delay,
	}
}

// crashHelperMain is the subprocess body of TestCrashRecoveryEndToEnd: a
// coordinator that accepts three jobs — one canceled, one queued behind a
// long admission delay, one running — and is then killed by the injected
// kill point (MANIMAL_FAULTS, set by the parent). It never returns.
func crashHelperMain() {
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "crash helper:", err)
			os.Exit(2)
		}
	}
	dir := os.Getenv("MANIMAL_CRASH_DIR")
	if dir == "" {
		die(errors.New("MANIMAL_CRASH_DIR not set"))
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{Journal: true})
	die(err)
	data := filepath.Join(dir, "webpages.rec")
	ctx := context.Background()

	// j00000001: canceled before it ever runs — recovery must leave it be.
	hc, err := sys.SubmitAsync(ctx, crashSpec("crash-canceled", data, filepath.Join(dir, "c.kv"), time.Minute))
	die(err)
	hc.Cancel()
	hc.Wait() // the canceled state is journaled before Wait returns

	// j00000002: accepted but still queued (admission delay) at crash time.
	_, err = sys.SubmitAsync(ctx, crashSpec("crash-queued", data, filepath.Join(dir, "q.kv"), time.Minute))
	die(err)

	// j00000003: runs immediately; its first map (or reduce, per regime)
	// task attempt trips the kill point and the process exits hard.
	hk, err := sys.SubmitAsync(ctx, crashSpec("crash-killed", data, filepath.Join(dir, "k.kv"), 0))
	die(err)
	hk.Wait()
	fmt.Fprintln(os.Stderr, "crash helper: kill point never fired")
	os.Exit(3)
}

// TestCrashRecoveryEndToEnd kills a coordinator mid-job with the
// faultinject kill point (in a subprocess — a real os.Exit, no deferred
// cleanup), then recovers from the journal in this process and requires:
// interrupted jobs re-run to byte-identical outputs, the canceled job
// stays canceled, and no orphaned scratch or partial-output files remain.
//
// MANIMAL_CRASH_FAULTS overrides the child's fault regime (CI runs both
// the mid-map and mid-reduce kills).
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if os.Getenv("MANIMAL_CRASH_HELPER") == "1" {
		crashHelperMain()
	}
	if os.Getenv("MANIMAL_FAULTS") != "" {
		t.Skip("needs a fault-free parent process (the kill regime is for the subprocess only)")
	}

	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(21).WriteWebPages(data, 3000, 64); err != nil {
		t.Fatal(err)
	}

	// Baselines from an undisturbed system: what q.kv and k.kv must be
	// byte-for-byte once recovery re-runs them.
	base, err := manimal.NewSystemWith(filepath.Join(dir, "baseline-sys"), manimal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseOut := filepath.Join(dir, "baseline.kv")
	if _, err := base.Submit(crashSpec("baseline", data, baseOut, 0)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(baseOut)
	if err != nil || len(want) == 0 {
		t.Fatalf("baseline output: %d bytes, %v", len(want), err)
	}

	// The crash: re-run this test in a subprocess under a kill regime.
	regime := os.Getenv("MANIMAL_CRASH_FAULTS")
	if regime == "" {
		regime = "kill=1.0@map;seed=7"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestCrashRecoveryEndToEnd$")
	cmd.Env = append(os.Environ(),
		"MANIMAL_CRASH_HELPER=1",
		"MANIMAL_CRASH_DIR="+dir,
		"MANIMAL_FAULTS="+regime,
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != faultinject.KillExitCode {
		t.Fatalf("child exited %v, want status %d (injected kill)\nchild stderr:\n%s",
			err, faultinject.KillExitCode, stderr.String())
	}

	// Recovery: a fresh coordinator over the same system directory.
	sysDir := filepath.Join(dir, "sys")
	sys, err := manimal.NewSystemWith(sysDir, manimal.Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := sys.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs, want 2 (queued + killed): %+v", len(recovered), recovered)
	}
	for i, wantID := range []string{"j00000002", "j00000003"} {
		r := recovered[i]
		if r.ID != wantID || r.Err != nil || r.Handle == nil {
			t.Fatalf("recovered[%d] = {ID:%s Err:%v Handle:%v}, want %s resubmitted", i, r.ID, r.Err, r.Handle, wantID)
		}
		if _, err := r.Handle.Wait(); err != nil {
			t.Fatalf("recovered job %s: %v", r.ID, err)
		}
	}

	// Byte-identical outputs, no orphans, a quiesced journal, and the
	// canceled job untouched.
	for _, out := range []string{"q.kv", "k.kv"} {
		got, err := os.ReadFile(filepath.Join(dir, out))
		if err != nil {
			t.Fatalf("recovered output %s: %v", out, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("recovered %s differs from baseline: %d vs %d bytes", out, len(got), len(want))
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "c.kv")); !os.IsNotExist(err) {
		t.Errorf("canceled job's output exists (stat err = %v)", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmps) != 0 {
		t.Errorf("orphaned partial-output files: %v", tmps)
	}
	if des, err := os.ReadDir(filepath.Join(sysDir, "work")); err != nil || len(des) != 0 {
		names := make([]string, 0, len(des))
		for _, de := range des {
			names = append(names, de.Name())
		}
		t.Errorf("orphaned scratch space: %v (err %v)", names, err)
	}
	if des, err := os.ReadDir(filepath.Join(sysDir, "journal")); err != nil || len(des) != 1 || des[0].Name() != journal.LogName {
		t.Errorf("journal directory = %v (err %v), want only %s", des, err, journal.LogName)
	}
	if st := sys.Journal().Stats(); st.Jobs != 3 || st.Incomplete != 0 {
		t.Fatalf("journal after recovery = %+v, want 3 jobs / 0 incomplete", st)
	}
	if e, ok, err := sys.Journal().Lookup("j00000001"); err != nil || !ok || e.State() != journal.StateCanceled {
		t.Fatalf("canceled job journal state = %s (ok %v, err %v), want canceled", e.State(), ok, err)
	}
	for _, id := range []string{"j00000002", "j00000003"} {
		e, ok, err := sys.Journal().Lookup(id)
		if err != nil || !ok || e.State() != journal.StateDone {
			t.Fatalf("recovered job %s journal state = %s (ok %v, err %v)", id, e.State(), ok, err)
		}
		if e.Mark == nil {
			t.Errorf("recovered job %s has no interruption mark", id)
		}
	}
}
