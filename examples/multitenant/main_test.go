package main

// Example runs the program and pins its whole output.
func Example() {
	main()
	// Output:
	// fail tenant denied after 8 objects: need 32 bytes, 256/256 used
	// collect-first tenant allocated 64 objects on a 8-object budget (8 forced collections, 0 denials)
	// evict tenant removed at object 8
	// evicted: 8 objects / 256 bytes reclaimed, live now 0 bytes
	// bystander check: fail tenant still owns 256 bytes (budget 256)
}
