// Package mp is the worldconsume fixture's transport: a World with the
// reshape surface the analyzer keys on. Reform consumes its receiver and
// hands the replacement back inside the result, mirroring the real
// transport's signature.
package mp

// World stands in for the real transport's world.
type World struct{}

// Reshape carries the replacement world out of a consuming call.
type Reshape struct{ World *World }

// Reform re-forms the world around survivors and new nodes; the receiver
// is consumed.
func (w *World) Reform(alsoDoomed, ranksPerNewNode, groupOfNewNode []int, joinAt float64) (*Reshape, error) {
	return &Reshape{World: w}, nil
}

// Send and Barrier stand in for post-reshape traffic in the fixtures.
func (w *World) Send(dst int) {}

// Barrier stands in for collective traffic in the fixtures.
func (w *World) Barrier() {}
