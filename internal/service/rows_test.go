package service

import "testing"

// TestQuarantinedRowErrorSpellsLosses pins the message text clients see.
func TestQuarantinedRowErrorSpellsLosses(t *testing.T) {
	if got, want := QuarantinedRowError(3), "cell quarantined after 3 worker losses"; got != want {
		t.Errorf("QuarantinedRowError(3) = %q, want %q", got, want)
	}
}
