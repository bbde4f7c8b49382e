package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

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
			cfgErr: "-resume requires -checkpoint-dir",
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
