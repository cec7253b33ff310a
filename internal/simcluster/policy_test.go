package simcluster

import (
	"math"
	"testing"
)

// TestTokenBucket pins the refill/cap/admit arithmetic in virtual time.
func TestTokenBucket(t *testing.T) {
	tb := &TokenBucket{RatePerSec: 1000, Burst: 100}
	if got := tb.Admit(0, 250); got != 100 {
		t.Errorf("first admit %.1f, want burst 100", got)
	}
	// 50 ms at 1000/s refills 50 tokens.
	if got := tb.Admit(50_000_000, 10); got != 10 {
		t.Errorf("admit under balance = %.1f, want 10", got)
	}
	if got := tb.Admit(50_000_000, 1000); got != 40 {
		t.Errorf("drained admit %.1f, want remaining 40", got)
	}
	// A long idle period caps at Burst, never beyond.
	if got := tb.Admit(10_000_000_000, 1000); got != 100 {
		t.Errorf("post-idle admit %.1f, want burst cap 100", got)
	}
	var none *TokenBucket
	if got := none.Admit(0, 123.5); got != 123.5 {
		t.Errorf("nil bucket admitted %.1f, want everything", got)
	}
}

// TestBounceRefresh pins the at-least-one-bounce probability shape.
func TestBounceRefresh(t *testing.T) {
	if got := bounceRefreshed(1000, 10, 0); got != 0 {
		t.Errorf("no movement must refresh nobody, got %.1f", got)
	}
	want := 1000 * (1 - math.Pow(0.95, 10))
	if got := bounceRefreshed(1000, 10, 0.05); math.Abs(got-want) > 1e-9 {
		t.Errorf("refresh %.3f, want %.3f", got, want)
	}
	// More ops per tick converge faster.
	if bounceRefreshed(1000, 20, 0.05) <= bounceRefreshed(1000, 5, 0.05) {
		t.Error("refresh rate must grow with ops per client")
	}
}
