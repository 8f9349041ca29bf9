// Package mp is the worldconsume fixture's transport: a World with the
// reshape surface the analyzer keys on. ShrinkNodes and Grow consume
// their receiver and hand the replacement back inside the result,
// mirroring the real transport's signatures.
package mp

// World stands in for the real transport's world.
type World struct{}

// Reshape carries the replacement world out of a consuming call.
type Reshape struct{ World *World }

// ShrinkNodes re-forms the world around survivors; the receiver is consumed.
func (w *World) ShrinkNodes(alsoDoomed []int) (*Reshape, error) {
	return &Reshape{World: w}, nil
}

// Grow appends capacity; the receiver is consumed.
func (w *World) Grow(ranksPerNewNode, groupOfNewNode []int, startAt float64) (*Reshape, error) {
	return &Reshape{World: w}, nil
}

// Send and Barrier stand in for post-reshape traffic in the fixtures.
func (w *World) Send(dst int) {}

// Barrier stands in for collective traffic in the fixtures.
func (w *World) Barrier() {}
