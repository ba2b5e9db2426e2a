package main

import (
	"testing"
	"time"

	"ethmeasure/internal/hashset"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ethmeasure/internal/p2p.(*Node).relayTx":          "p2p",
		"ethmeasure/internal/hashset.(*U64).Has":           "hashset",
		"ethmeasure/internal/core.(*Campaign).build.func1": "core",
		"main.runTxGossip":                                 "bench",
		"runtime.mapaccess2_fast64":                        "",
		"sort.Slice":                                       "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfilerChargesProgramFrames(t *testing.T) {
	var p profiler
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	set := hashset.New(1 << 12)
	deadline := time.Now().Add(300 * time.Millisecond)
	for i := uint64(0); time.Now().Before(deadline); i++ {
		set.Add(i*0x9e3779b97f4a7c15 | 1)
		if set.Len() > 1<<11 {
			set = hashset.New(1 << 12)
		}
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if p.total <= 0 {
		t.Fatal("profile decoded to no CPU time")
	}
	if p.seconds["hashset"] <= 0 {
		t.Fatalf("no CPU charged to hashset: %v", p.seconds)
	}
}
