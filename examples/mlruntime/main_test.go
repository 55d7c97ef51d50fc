package main

// Example runs the program and pins its whole output.
func Example() {
	main()
	// Output:
	// conservative heap:   74647 objects live (  757 KiB),   133941 heap words scanned, 1 collections
	// typed heap      :   60000 objects live (  585 KiB),    60000 heap words scanned, 1 collections
	//
	// The typed runtime keeps exact pointer maps for heap records (as its
	// compiler can) while the stack stays conservative (as its compiler prefers):
	// the paper's middle "degree of conservativism", with none of the integer-
	// as-pointer retention and a fraction of the marking work.
}
