module distws/bench

go 1.22

require distws v0.0.0

replace distws => ../
