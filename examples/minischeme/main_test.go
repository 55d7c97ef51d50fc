package main

// Example runs the program and pins its whole output.
func Example() {
	main()
	// Output:
	// minischeme on a conservative collector
	//   (sum (range 100)) = 5050
	//   (sum (map2x (range 100))) = 10100
	//   (car (cdr (quote (1 2 3)))) = 2
	//   (sum (map2x (map2x (range 250)))) = 125500
	//
	// heap after run: 1721 objects live (11 KiB), 2 collections, 13158 objects allocated in total
	// every collection ran mid-evaluation against the simulated stack —
	// no pointer maps, no compiler cooperation, nothing lost.
}
