package main

// Example runs the program and pins its whole output.
func Example() {
	main()
	// Output:
	// collection 1: 3 objects live, 1 freed
	//   list head alive: true, doomed object alive: false
	// collection 2 (stack ref live): 4 objects live
	// blacklist now holds 1 page(s) near the false reference
	// objects later placed on the blacklisted page: 0
	// heap: 1024 KiB committed, 3 collections total
}
