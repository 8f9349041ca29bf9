package vcharge_test

import (
	"testing"

	"heterohpc/internal/analysis/analysistest"
	"heterohpc/internal/analysis/vcharge"
)

func TestVcharge(t *testing.T) {
	analysistest.Run(t, "../testdata", vcharge.Analyzer, "sparse", "krylov", "calc")
}

// TestVchargeConsumerFirst names only the consumer: the loader must analyze
// the imported sparse fixture on demand so krylov sees its ChargesFacts.
func TestVchargeConsumerFirst(t *testing.T) {
	analysistest.Run(t, "../testdata", vcharge.Analyzer, "krylov")
}

// TestVchargeStaleAllowAcrossFiles pins the multi-file allow contract: a
// valid allow in one file must not mask a bare diagnostic in another, and
// a stale or unjustified allow is reported no matter which file holds it.
func TestVchargeStaleAllowAcrossFiles(t *testing.T) {
	analysistest.Run(t, "../testdata", vcharge.Analyzer, "fem")
}
