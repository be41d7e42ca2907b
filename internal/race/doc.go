// Package race reports whether the binary was built with the race
// detector. Allocation-budget tests skip under it: race instrumentation
// allocates on paths that allocate nothing in a normal build.
package race
