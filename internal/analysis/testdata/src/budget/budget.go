// Package budget is the fixture for TestBudget's counters:
// TestBudgetCounters pins each counter's exact count over this file, so
// a counter that silently finds nothing cannot pass the budget forever.
package budget

import "time"

type message struct{}

// inboxKey is a banned declaration: one.
type inboxKey struct{ src, dst int }

// Config declares two exported fields on one line and one unexported
// field: two, as its go doc listing shows them.
type Config struct {
	A, B int
	c    int
}

type trainer struct{ step int }

// SetStep is a banned method name: one.
func (t *trainer) SetStep(s int) { t.step = s }

// WithA is the one With* option; withB is unexported and not one.
func WithA() Config { return Config{} }

func withB() Config { return Config{} }

// magic spells PXJN once in runes, and banner once in a string.
var magic = [4]byte{'P', 'X', 'J', 'N'}

const banner = "PXJN"

// serve holds two go statements, one pragma, one wall-clock timer call
// (time.Time's After method is not one) and one map of chan message.
func serve(inbox map[int]chan message, deadline time.Time) bool {
	go func() {}()
	go func() {}()
	time.Sleep(time.Millisecond) //parallax:allow(lockheld) -- fixture pragma
	return deadline.After(time.Time{})
}
