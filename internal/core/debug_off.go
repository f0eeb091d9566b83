//go:build !alaedebug

package core

// alaeDebug guards the assertions of debug.go: compiled out by default.
const alaeDebug = false
