//go:build alaedebug

package core

// alaeDebug: -tags alaedebug asserts every band row and emit rebind.
const alaeDebug = true
