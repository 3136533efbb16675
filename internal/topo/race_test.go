//go:build race

package topo

func init() { raceDetector = true }
