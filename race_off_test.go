//go:build !race

package alae

const raceEnabled = false
