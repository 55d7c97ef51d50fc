package main

// Example runs the program and pins its whole output.
func Example() {
	main()
	// Output:
	// after churn: 50 entries in table, 150 evicted
	// collector view: 200 objects live, 0 reclaimed
	// => 150 evicted entries are still reachable: a leak!
	// root slot 0 still references evicted entry (key=149): the eviction-history list
	// after dropping the history root: 150 more entries reclaimed
	// live objects now: 50 (the 50 entries still in the table)
}
