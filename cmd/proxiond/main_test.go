package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself, in place of the tests, when the
// environment names its arguments: how TestUnknownFaultProfileExits
// observes the process's exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("PROXIOND_TEST_ARGS"); ok {
		os.Args = append([]string{"proxiond"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLoadtestRuns drives -loadtest over a small population on a free
// port: the harness runs to completion and its report is the JSON object
// on stdout.
func TestLoadtestRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-addr", "127.0.0.1:0", "-contracts", "60", "-loadtest",
		"-loadtest-requests", "64", "-loadtest-concurrency", "4"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	var rep struct {
		Requests    int             `json:"requests"`
		Concurrency int             `json:"concurrency"`
		Errors      int             `json:"errors"`
		Server      json.RawMessage `json:"server"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the report: %v\n%s", err, stdout.String())
	}
	if rep.Requests != 64 || rep.Concurrency != 4 || rep.Errors != 0 || len(rep.Server) == 0 {
		t.Errorf("report %s, want 64 requests at concurrency 4, no errors and the server's stats", stdout.String())
	}
	if !strings.Contains(stderr.String(), "proxiond listening on 127.0.0.1:") {
		t.Errorf("stderr does not name the bound address:\n%s", stderr.String())
	}
}

// TestUnknownFaultProfileExits: an unknown -faults profile is refused
// before anything is generated or served, and the process exits non-zero.
func TestUnknownFaultProfileExits(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-faults", "no-such-profile"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "no-such-profile") {
		t.Fatalf("run: error %v, want the unknown profile refused", err)
	}
	if stdout.Len() != 0 || strings.Contains(stderr.String(), "generating") {
		t.Errorf("a refused run wrote stdout %q, stderr %q", stdout.String(), stderr.String())
	}

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PROXIOND_TEST_ARGS=-faults no-such-profile")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("process ended with %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown fault profile "no-such-profile"`) {
		t.Errorf("output does not name the profile:\n%s", out)
	}
}
