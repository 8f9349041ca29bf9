package h5lite

// RefWriteTo is the reflective reference encoder, refWriteTo, for the
// package's external tests: checkpoint_oracle_test.go holds
// checkpoint.Write's bytes to it.
var RefWriteTo = refWriteTo
