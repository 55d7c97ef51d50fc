package main

// Example runs the program and pins its whole output.
func Example() {
	main()
	// Output:
	// == Grids: embedded links (figure 3) vs separate cons cells (figure 4) ==
	// embedded-links    6400 objects; one false ref retains   1589 objects on average (24.8%), worst 6084
	// separate-cons    19200 objects; one false ref retains     60 objects on average (0.3%), worst 160
	// advice: "the introduction of explicit cons-cells conveys more information
	// to the garbage collector than the use of embedded link fields, and should be
	// encouraged, in the presence of any garbage collector."
	//
	// == Queue with a stray pointer to one old element ==
	// links left dirty           window=100, steps=30000:  30001 cells still live at the end
	// links cleared on dequeue   window=100, steps=30000:    102 cells still live at the end
	// advice: "queues no longer grow without bound if the queue link field is
	// cleared when an item is removed... clearing links is much safer than explicit
	// deallocation."
	//
	// == Balanced tree: the benign case ==
	// depth-16 tree, 65535 nodes: one false ref retains 5.3 nodes on average
	// advice: tree-shaped data tolerates misidentification — expected retention
	// is about the height of the tree, so "a large number of false references to
	// such structures can usually be tolerated."
}
