module hybridtree/benchmark

go 1.22

require hybridtree v0.0.0

replace hybridtree => ../
