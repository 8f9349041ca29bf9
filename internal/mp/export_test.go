package mp

// The package's external tests, which import packages built on mp, reach
// these test helpers through the names below.
var (
	Pending         = pending
	FaultWorld      = faultWorld
	RunWithDeadline = runWithDeadline
)
