//go:build race

package served

const raceEnabled = true
