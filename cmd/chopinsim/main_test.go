package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestValidateMetricsInterval pins the -metrics-interval contract: zero and
// negative intervals are rejected with a typed usage error (exit 2 in
// main), positive intervals pass.
func TestValidateMetricsInterval(t *testing.T) {
	for _, tc := range []struct {
		v      int64
		wantOK bool
	}{
		{v: 1, wantOK: true},
		{v: 1000, wantOK: true},
		{v: 0, wantOK: false},
		{v: -5, wantOK: false},
	} {
		err := validateMetricsInterval(tc.v)
		if tc.wantOK {
			if err != nil {
				t.Errorf("validateMetricsInterval(%d) = %v, want nil", tc.v, err)
			}
			continue
		}
		var ue *UsageError
		if !errors.As(err, &ue) {
			t.Errorf("validateMetricsInterval(%d) = %v, want *UsageError", tc.v, err)
			continue
		}
		if ue.Flag != "metrics-interval" {
			t.Errorf("UsageError.Flag = %q", ue.Flag)
		}
		if !strings.Contains(ue.Error(), "invalid -metrics-interval") {
			t.Errorf("UsageError message = %q", ue.Error())
		}
	}
}

// TestValidateScaleAndStragglerWindow pins the -scale and
// -straggler-window contracts: a scale outside (0,1] and a negative window
// are typed usage errors (exit 2 in main) naming their flag.
func TestValidateScaleAndStragglerWindow(t *testing.T) {
	for _, tc := range []struct {
		flag string
		err  error
	}{
		{"", validateScale(0.03)},
		{"", validateScale(1)},
		{"scale", validateScale(0)},
		{"scale", validateScale(-0.5)},
		{"scale", validateScale(2)},
		{"scale", validateScale(math.NaN())},
		{"", validateStragglerWindow(0)},
		{"", validateStragglerWindow(5000)},
		{"straggler-window", validateStragglerWindow(-1)},
		{"straggler-window", validateStragglerWindow(-5)},
	} {
		if tc.flag == "" {
			if tc.err != nil {
				t.Errorf("valid value rejected: %v", tc.err)
			}
			continue
		}
		var ue *UsageError
		if !errors.As(tc.err, &ue) {
			t.Errorf("-%s: got %v, want *UsageError", tc.flag, tc.err)
			continue
		}
		if ue.Flag != tc.flag || !strings.Contains(ue.Error(), "invalid -"+tc.flag) {
			t.Errorf("-%s: UsageError = %q (flag %q)", tc.flag, ue.Error(), ue.Flag)
		}
	}
}

func TestGitRevNeverEmpty(t *testing.T) {
	// Test binaries carry no VCS stamp; the fallback must still be a
	// non-empty, record-stable string.
	if rev := gitRev(); rev == "" {
		t.Fatal("gitRev returned an empty revision")
	}
}
