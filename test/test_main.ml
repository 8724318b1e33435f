(* Test runner: one Alcotest suite per library. *)

let () =
  Alcotest.run "spiral-smp"
    [
      ("util", Test_util.suite);
      ("spl", Test_spl.suite);
      ("rules", Test_rules.suite);
      ("derive", Test_derive.suite);
      ("codegen", Test_codegen.suite);
      ("optimize", Test_optimize.suite);
      ("validate", Test_validate.suite);
      ("planning", Test_planning.suite);
      ("smp", Test_smp.suite);
      ("sim", Test_sim.suite);
      ("search", Test_search.suite);
      ("vector", Test_vector.suite);
      ("fft", Test_fft.suite);
      ("dft2d", Test_dft2d.suite);
      ("engine", Test_engine.suite);
      ("service", Test_service.suite);
      ("trace", Test_trace.suite);
    ]
