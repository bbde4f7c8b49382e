package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestMain lets the smoke test below re-execute this test binary as the
// measured command: invoked under that name it runs main instead of the
// tests.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "measured" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestScenarioFlags pins the flag → workload.Config mapping every measured
// subcommand shares: the defaults, the durability knobs that only mean
// something inside a checkpoint directory, and the refusals.
func TestScenarioFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		parseErr string
		cfgErr   string
		want     workload.Config
	}{
		{
			name: "defaults",
			want: workload.Config{System: workload.CookieMonster, EpsilonG: 2, Seed: 7},
		},
		{
			name: "durability knobs need a directory",
			args: []string{"-snapshot-every", "3", "-group-commit-interval", "64"},
			want: workload.Config{System: workload.CookieMonster, EpsilonG: 2, Seed: 7},
		},
		{
			name: "checkpoint directory",
			args: []string{"-checkpoint-dir", "ckpt", "-group-commit-interval", "64", "-resume", "-system", "ipa-like"},
			want: workload.Config{System: workload.IPALike, EpsilonG: 2, Seed: 7,
				CheckpointDir: "ckpt", SnapshotEveryDays: 7, GroupCommitEvents: 64, Resume: true},
		},
		{
			name:   "resume without a directory",
			args:   []string{"-resume"},
			cfgErr: "resume or snapshot cadence without a checkpoint directory",
		},
		{
			name:   "non-finite budget",
			args:   []string{"-epsilon-g", "NaN"},
			cfgErr: "non-finite capacity",
		},
		{
			name:   "unknown system",
			args:   []string{"-system", "arapaima"},
			cfgErr: `unknown -system "arapaima"`,
		},
		{
			name:     "retired snapshot mode",
			args:     []string{"-checkpoint-dir", "ckpt", "-snapshot-mode", "full"},
			parseErr: "flag provided but not defined: -snapshot-mode",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("measured test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			sf := registerScenarioFlags(fs)
			err := fs.Parse(tc.args)
			if tc.parseErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.parseErr) {
					t.Fatalf("parse error = %v, want %q", err, tc.parseErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := sf.config()
			if tc.cfgErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.cfgErr) {
					t.Fatalf("config error = %v, want %q", err, tc.cfgErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cfg, tc.want) {
				t.Fatalf("config = %+v\nwant     %+v", cfg, tc.want)
			}
		})
	}
}

// measuredCmd is the test binary re-executed as `measured args...`.
func measuredCmd(ctx context.Context, t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Args[0] = "measured"
	return cmd
}

// serving is one live `measured serve` process.
type serving struct {
	cmd   *exec.Cmd
	base  string        // http://host:port, parsed from the startup line
	pprof string        // the -pprof-addr index URL, printed before the startup line; empty when off
	out   *bytes.Buffer // everything it printed; read only after wait
	eof   chan struct{}
}

// startServe boots `measured serve -addr 127.0.0.1:0 args...` and returns
// once the process has printed the address it listens on.
func startServe(ctx context.Context, t *testing.T, args ...string) *serving {
	t.Helper()
	cmd := measuredCmd(ctx, t, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serving{cmd: cmd, out: &bytes.Buffer{}, eof: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(p.out, line)
			if _, url, ok := strings.Cut(line, "pprof at "); ok {
				p.pprof = url // read by the test only after the startup line's send below
			}
			if _, hostport, ok := strings.Cut(line, " on http://"); ok {
				select {
				case addr <- "http://" + hostport:
				default: // only the startup line is wanted
				}
			}
		}
	}()
	select {
	case p.base = <-addr:
	case <-p.eof:
		_ = cmd.Wait()
		t.Fatalf("measured serve exited before listening:\n%s", p.out)
	}
	return p
}

// wait collects the process's exit and returns everything it printed.
func (p *serving) wait(t *testing.T) string {
	t.Helper()
	<-p.eof
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("measured serve: %v\n%s", err, p.out)
	}
	return p.out.String()
}

// TestMeasuredProcessSmoke drives the real command across process
// boundaries: a bad subcommand, export, a checkpointed serve fed by the
// load generator, SIGTERM mid-trace into a resumable suspend, -resume, and a
// close-out over /v1/shutdown that must account for every event of the
// trace exactly once.
func TestMeasuredProcessSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()

	out, err := measuredCmd(ctx, t, "frobnicate").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "usage:") {
		t.Fatalf("unknown subcommand: err %v, want exit 2 with usage:\n%s", err, out)
	}

	dir := t.TempDir()
	trace := filepath.Join(dir, "micro.trace")
	if out, err := measuredCmd(ctx, t, "export", "-workload", "cookie-monster", "-out", trace).CombinedOutput(); err != nil {
		t.Fatalf("export: %v\n%s", err, out)
	}
	ds, err := serve.OpenTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	firstHalf := *ds
	firstHalf.Events = nil
	for _, ev := range ds.Events {
		if ev.Day < ds.DurationDays/2 {
			firstHalf.Events = append(firstHalf.Events, ev)
		}
	}
	if len(firstHalf.Events) == 0 || len(firstHalf.Events) == len(ds.Events) {
		t.Fatalf("trace does not split: %d of %d events in the first half", len(firstHalf.Events), len(ds.Events))
	}
	ckpt := filepath.Join(dir, "ckpt")

	srv := startServe(ctx, t, "-trace", trace, "-checkpoint-dir", ckpt)
	if srv.pprof != "" {
		t.Fatalf("pprof served without -pprof-addr: %s", srv.pprof)
	}
	rep, err := loadgen.Run(ctx, loadgen.Config{Target: srv.base, Dataset: &firstHalf, Senders: 2, BatchSize: 64})
	if err != nil {
		t.Fatalf("first half: %v", err)
	}
	if rep.EventsAccepted != len(firstHalf.Events) {
		t.Fatalf("first half: accepted %d of %d events", rep.EventsAccepted, len(firstHalf.Events))
	}
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if log := srv.wait(t); !strings.Contains(log, "suspending (resumable)") {
		t.Fatalf("SIGTERM did not suspend:\n%s", log)
	}

	// The resumed server is sent the whole trace again: the half its
	// checkpoint covers must dedupe, the rest must be admitted.
	srv = startServe(ctx, t, "-trace", trace, "-checkpoint-dir", ckpt, "-resume")
	rep, err = loadgen.Run(ctx, loadgen.Config{Target: srv.base, Dataset: ds, Senders: 2, BatchSize: 64})
	if err != nil {
		t.Fatalf("after resume: %v", err)
	}
	if want := len(ds.Events) - len(firstHalf.Events); rep.EventsAccepted != want || rep.Duplicates != len(firstHalf.Events) {
		t.Fatalf("after resume: accepted %d (want %d), duplicates %d (want %d)",
			rep.EventsAccepted, want, rep.Duplicates, len(firstHalf.Events))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.base+"/v1/shutdown", strings.NewReader(`{"final":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shutdown: status %d", resp.StatusCode)
	}
	log := srv.wait(t)
	if want := fmt.Sprintf("run complete: %d events ingested", len(ds.Events)); !strings.Contains(log, want) {
		t.Fatalf("final summary lacks %q:\n%s", want, log)
	}

	// -pprof-addr: the profiles answer on their own listener, and the API
	// address does not route them.
	srv = startServe(ctx, t, "-trace", trace, "-pprof-addr", "127.0.0.1:0")
	get := func(url string) (int, string) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if !strings.HasSuffix(srv.pprof, "/debug/pprof/") {
		t.Fatalf("pprof index URL = %q", srv.pprof)
	}
	if code, body := get(srv.pprof); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET %s: status %d, body:\n%s", srv.pprof, code, body)
	}
	if code, _ := get(srv.base + "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("API address answered /debug/pprof/ with %d, want 404", code)
	}
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	srv.wait(t)
}
