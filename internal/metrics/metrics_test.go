package metrics

import (
	"strings"
	"testing"

	"parallax/internal/partition"
)

func TestHumanize(t *testing.T) {
	cases := map[float64]string{
		274_000: "274k",
		98_900:  "98.9k",
		5_800:   "5.8k",
		191:     "191",
		0.5:     "0.50",
	}
	for v, want := range cases {
		if got := Humanize(v); got != want {
			t.Errorf("Humanize(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	if got := HumanBytes(1.5e9); got != "1.50 GB" {
		t.Errorf("got %q", got)
	}
	if got := HumanBytes(2.5e6); got != "2.5 MB" {
		t.Errorf("got %q", got)
	}
	if got := HumanBytes(12); got != "12 B" {
		t.Errorf("got %q", got)
	}
}

func TestNormalizedThroughput(t *testing.T) {
	if got := NormalizedThroughput(7600, 191); got < 39 || got > 41 {
		t.Fatalf("normalized = %v, want ~39.8", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Table 1", "Model", "PS", "AR")
	tbl.AddRow("ResNet-50", "5.8k", "7.6k")
	tbl.AddRow("LM", "98.9k", "45.5k")
	tbl.AddNote("48 GPUs")
	s := tbl.String()
	for _, want := range []string{"== Table 1 ==", "Model", "ResNet-50", "98.9k", "note: 48 GPUs", "-----"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if tbl.Rows() != 2 {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	// Missing cells render empty, extra cells are dropped.
	tbl2 := NewTable("x", "a", "b")
	tbl2.AddRow("1")
	tbl2.AddRow("1", "2", "3")
	if !strings.Contains(tbl2.String(), "1") {
		t.Fatal("row lost")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(274_000, 98_900); got != "2.77x" {
		t.Fatalf("Ratio = %q", got)
	}
	if Ratio(1, 0) != "n/a" {
		t.Fatal("division by zero not handled")
	}
}

func TestFormatShardMapAndDecision(t *testing.T) {
	out := FormatShardMap([]ShardRoute{
		{Var: "embedding", Method: "ps", Partitions: 3, Rows: []int{4, 3, 3}, Servers: []int{0, 1, 0}},
		{Var: "proj", Method: "allreduce"},
	})
	for _, want := range []string{"embedding", "ps x3", "p0[0,4)->m0", "p2[7,10)->m0",
		"rows/server: m0=7 m1=3", "proj", "replicated"} {
		if !strings.Contains(out, want) {
			t.Errorf("shard map missing %q:\n%s", want, out)
		}
	}
	// Long maps elide per-partition entries but keep full server totals.
	rows := make([]int, 20)
	servers := make([]int, 20)
	for i := range rows {
		rows[i], servers[i] = 2, i%2
	}
	out = FormatShardMap([]ShardRoute{{Var: "big", Method: "ps", Partitions: 20, Rows: rows, Servers: servers}})
	if !strings.Contains(out, "(+12 more)") || !strings.Contains(out, "m0=20 m1=20") {
		t.Errorf("elided shard map wrong:\n%s", out)
	}

	if out := FormatPartitionDecision("fixed", 8, nil); !strings.Contains(out, "partitions: 8 (fixed)") {
		t.Errorf("fixed decision: %q", out)
	}
	res := &partition.SearchResult{
		BestP:   4,
		Runs:    3,
		Samples: []partition.Sample{{P: 8, IterTime: 0.5}, {P: 2, IterTime: 0.4}, {P: 4, IterTime: 0.3}},
		Model:   partition.CostModel{Theta0: 0.1, Theta1: 0.8, Theta2: 0.05},
	}
	out = FormatPartitionDecision("online", 4, res)
	for _, want := range []string{"partitions: 4 (online search, 3 measurement runs)",
		"P=2:0.4s P=4:0.3s P=8:0.5s", "theta1=0.8", "critical P*=4.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("decision missing %q:\n%s", want, out)
		}
	}
	if out := FormatPartitionDecision("online", 2, &partition.SearchResult{
		BestP: 2, Runs: 2, Samples: []partition.Sample{{P: 2, IterTime: 1}},
	}); !strings.Contains(out, "degenerate bracket") {
		t.Errorf("degenerate fit not reported: %q", out)
	}
}
