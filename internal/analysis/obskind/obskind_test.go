package obskind_test

import (
	"testing"

	"heterohpc/internal/analysis/analysistest"
	"heterohpc/internal/analysis/obskind"
)

func TestObskind(t *testing.T) {
	analysistest.Run(t, "../testdata", obskind.Analyzer, "obs", "obsuser")
}
