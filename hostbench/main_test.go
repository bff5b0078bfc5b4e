package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

const stubEnv = "HOSTBENCH_STUB_CHILD"

// TestStubChild is not a test: runChild re-executes the test binary with
// stubEnv set to play a child that completes or crashes.
func TestStubChild(t *testing.T) {
	switch os.Getenv(stubEnv) {
	case "":
		t.Skip("stub child only")
	case "crash":
		fmt.Println("partial output")
		fmt.Fprintln(os.Stderr, "fatal error: concurrent map writes")
		fmt.Fprintln(os.Stderr, "\ngoroutine 7 [running]:")
		os.Exit(2)
	case "ok":
		res := childResult{Cells: []cellOut{{App: "a", Cfg: "gto"}, {App: "a", Cfg: "rba", Fault: "panic: x"}}}
		fmt.Println("progress line")
		json.NewEncoder(os.Stdout).Encode(res)
		os.Exit(0)
	case "garbled":
		fmt.Println("{not json")
		os.Exit(0)
	}
}

func stub(t *testing.T, kind string) childOutcome {
	t.Helper()
	t.Setenv(stubEnv, kind)
	return runChild(context.Background(), []string{os.Args[0], "-test.run=^TestStubChild$"})
}

func TestCrashAccounting(t *testing.T) {
	crashed := stub(t, "crash")
	if crashed.res != nil {
		t.Fatal("a child that exited 2 was taken as completed")
	}
	if crashed.fatal != "fatal error: concurrent map writes" {
		t.Errorf("fatal line = %q", crashed.fatal)
	}
	ok := stub(t, "ok")
	if ok.res == nil {
		t.Fatalf("completed child taken as crashed: %s", ok.fatal)
	}
	if garbled := stub(t, "garbled"); garbled.res != nil {
		t.Error("a child whose last line is not a result was taken as completed")
	}

	// A crashed child loses every cell of its pass; a completed one only
	// its faulted cells.
	const cells = 2
	attempted, failed := tally([]childOutcome{ok, crashed, ok}, cells)
	if attempted != 3*cells || failed != cells+2 {
		t.Errorf("tally = %d attempted, %d failed; want %d, %d", attempted, failed, 3*cells, cells+2)
	}
}

// TestFaultedCellFailsRun: a completed child that reports a faulted cell
// makes the run incorrect, while a crashed child only adds failed cells.
func TestFaultedCellFailsRun(t *testing.T) {
	ok := stub(t, "ok")
	if ok.res == nil {
		t.Fatalf("completed child taken as crashed: %s", ok.fatal)
	}
	problems := checkPasses([]*childResult{ok.res})
	if len(problems) != 1 || !strings.Contains(problems[0], "a/rba: fault: panic: x") {
		t.Errorf("faulted cell gave problems %q", problems)
	}
	clean := &childResult{Cells: []cellOut{{App: "a", Cfg: "gto"}}}
	if problems := checkPasses([]*childResult{clean, clean}); len(problems) != 0 {
		t.Errorf("clean passes gave problems %q", problems)
	}
	if problems := checkPasses([]*childResult{clean, {Digest: "x"}}); len(problems) != 1 {
		t.Errorf("passes with different digests gave problems %q", problems)
	}
}

func TestFatalLine(t *testing.T) {
	for in, want := range map[string]string{
		"panic: boom\n\ngoroutine 1":                        "panic: boom",
		"x\nfatal error: concurrent map writes\npanic: y\n": "fatal error: concurrent map writes",
		"hostbench child: unknown workload \"x\"\n":         "hostbench child: unknown workload \"x\"",
		"":                   "",
		"signal: killed\n\n": "signal: killed",
		"fatal error: all goroutines are asleep - deadlock!\n\n": "fatal error: all goroutines are asleep - deadlock!",
	} {
		if got := fatalLine(in); got != want {
			t.Errorf("fatalLine(%q) = %q, want %q", in, got, want)
		}
	}
}
