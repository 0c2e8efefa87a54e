//go:build !amd64

package main

func rdtsc() uint64 { return 0 }

func tscUsable() bool { return false }
