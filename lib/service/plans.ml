open Spiral_fft

(* Descriptor-keyed table of executable plans, the service's view of the
   library: one resident process serves mixed descriptor kinds (1-D,
   2-D, batched, real-input) by dispatching each parsed Problem to its
   front-end.  Entries are planned on first use, cached, and evicted
   LRU beyond [max_plans]; a "seq" variant of every descriptor (planned
   at [threads = 1]) backs the degraded path when the parallel runtime
   is sick. *)

type entry = {
  descriptor : string;
  in_floats : int;  (* request payload length, in float64s *)
  out_floats : int;  (* reply payload length *)
  parallel : bool;
  exec : float array -> float array;
  exec_into : float array -> float array -> unit;
  destroy : unit -> unit;
  mutable out : float array;  (* [output]'s buffer; [||] until first use *)
  mutable last_used : float;
}

type t = {
  threads : int;
  mu : int;
  max_total : int;
  max_plans : int;
  table : (bool * string, entry) Hashtbl.t;  (* (seq, descriptor) *)
  lock : Mutex.t;
}

let create ?(threads = 1) ?(mu = 4) ?(max_total = Engine.default_total_limit)
    ?(max_plans = 64) () =
  if threads < 1 then invalid_arg "Plans.create: threads >= 1";
  if max_plans < 1 then invalid_arg "Plans.create: max_plans >= 1";
  {
    threads;
    mu;
    max_total;
    max_plans;
    table = Hashtbl.create 32;
    lock = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Payload float counts are a pure function of the problem, so Info
   requests can be answered without planning (or paying a compile on the
   reader thread). *)
let io_floats problem =
  let total = Problem.total problem in
  let n = Problem.size problem in
  match (Problem.kind problem, Problem.direction problem, Problem.batch problem)
  with
  | Problem.Dft, _, _ -> Ok (2 * total, 2 * total)
  | Problem.Dft2d, Problem.Forward, 1 -> Ok (2 * total, 2 * total)
  | Problem.Wht, Problem.Forward, 1 -> Ok (2 * total, 2 * total)
  | Problem.Rfft, Problem.Forward, 1 -> Ok (n, 2 * ((n / 2) + 1))
  | Problem.Rfft, Problem.Inverse, 1 -> Ok (2 * ((n / 2) + 1), n)
  | Problem.Rdft2d, Problem.Forward, 1 ->
      let dims = Problem.dims problem in
      Ok (n, 2 * dims.(0) * ((dims.(1) / 2) + 1))
  | Problem.Rdft2d, Problem.Inverse, 1 ->
      let dims = Problem.dims problem in
      Ok (2 * dims.(0) * ((dims.(1) / 2) + 1), n)
  | Problem.Dct, _, 1 -> Ok (n, n)
  | Problem.Dft2d, _, _ | Problem.Wht, _, _ ->
      Error
        (Engine.Unsupported
           "only forward, unbatched transforms are served for this kind")
  | (Problem.Rfft | Problem.Rdft2d | Problem.Dct), _, _ ->
      Error (Engine.Unsupported "real-input transforms are served unbatched")

(* Build the executable closure for a parsed problem.  Front-end plan
   constructors raise Invalid_argument on sizes they cannot serve (odd
   real lengths, non-power-of-two WHT, …) — surfaced as [Unsupported],
   never as an exception out of the service.  Each kind contributes only
   its front-end's allocation-free [*_into]; the allocating [exec] is
   derived from it, so both run the same code. *)
let build t ~seq problem descriptor =
  let threads = if seq then 1 else t.threads in
  let mu = t.mu in
  match io_floats problem with
  | Error e -> Error e
  | Ok (in_floats, out_floats) -> (
      let n = Problem.size problem in
      let mk () =
        match
          ( Problem.kind problem,
            Problem.direction problem,
            Problem.batch problem )
        with
        | Problem.Dft, dir, 1 ->
            let dir =
              match dir with
              | Problem.Forward -> Dft.Forward
              | Problem.Inverse -> Dft.Inverse
            in
            let p = Dft.plan ~direction:dir ~threads ~mu n in
            ( (fun src dst -> Dft.execute_into p ~src ~dst),
              (fun () -> Dft.destroy p),
              Dft.parallel p )
        | Problem.Dft, Problem.Forward, count ->
            let p = Batch.plan ~threads ~mu ~count n in
            ( (fun src dst -> Batch.execute_into p ~src ~dst),
              (fun () -> Batch.destroy p),
              Batch.parallel p )
        | Problem.Dft, Problem.Inverse, _ ->
            invalid_arg "batched transforms are served forward-only"
        | Problem.Dft2d, _, _ ->
            let dims = Problem.dims problem in
            let p = Dft2d.plan ~threads ~mu ~rows:dims.(0) ~cols:dims.(1) () in
            ( (fun src dst -> Dft2d.execute_into p ~src ~dst),
              (fun () -> Dft2d.destroy p),
              Dft2d.parallel p )
        | Problem.Wht, _, _ ->
            let p = Wht.plan ~threads ~mu n in
            ( (fun src dst -> Wht.execute_into p ~src ~dst),
              (fun () -> Wht.destroy p),
              Wht.parallel p )
        | Problem.Rfft, Problem.Forward, _ ->
            let p = Rfft.plan ~threads ~mu n in
            ( (fun src dst -> Rfft.forward_into p ~src ~dst),
              (fun () -> Rfft.destroy p),
              Rfft.parallel p )
        | Problem.Rfft, Problem.Inverse, _ ->
            let p = Rfft.plan ~threads ~mu n in
            ( (fun src dst -> Rfft.inverse_into p ~src ~dst),
              (fun () -> Rfft.destroy p),
              Rfft.parallel p )
        | Problem.Rdft2d, dir, _ -> (
            let dims = Problem.dims problem in
            let p = Rfft2d.plan ~threads ~mu ~rows:dims.(0) ~cols:dims.(1) () in
            match dir with
            | Problem.Forward ->
                ( (fun src dst -> Rfft2d.forward_into p ~src ~dst),
                  (fun () -> Rfft2d.destroy p),
                  Rfft2d.parallel p )
            | Problem.Inverse ->
                ( (fun src dst -> Rfft2d.inverse_into p ~src ~dst),
                  (fun () -> Rfft2d.destroy p),
                  Rfft2d.parallel p ))
        | Problem.Dct, Problem.Forward, _ ->
            let p = Dct.plan ~threads ~mu n in
            ( (fun src dst -> Dct.forward_into p ~src ~dst),
              (fun () -> Dct.destroy p),
              Dct.parallel p )
        | Problem.Dct, Problem.Inverse, _ ->
            let p = Dct.plan ~threads ~mu n in
            ( (fun src dst -> Dct.inverse_into p ~src ~dst),
              (fun () -> Dct.destroy p),
              Dct.parallel p )
      in
      match mk () with
      | exec_into, destroy, parallel ->
          let exec src =
            let dst = Array.make out_floats 0.0 in
            exec_into src dst;
            dst
          in
          Ok
            {
              descriptor;
              in_floats;
              out_floats;
              parallel;
              exec;
              exec_into;
              destroy;
              out = [||];
              last_used = Unix.gettimeofday ();
            }
      | exception Invalid_argument msg -> Error (Engine.Unsupported msg))

(* lazily, so a table used only through [exec] (a cold lookup + one
   call) never pays for a second output array *)
let output e =
  if Array.length e.out <> e.out_floats then
    e.out <- Array.make e.out_floats 0.0;
  e.out

(* caller holds the lock *)
let evict_lru_locked t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best.last_used <= e.last_used -> acc
        | _ -> Some (k, e))
      t.table None
  in
  Option.iter
    (fun (k, e) ->
      Hashtbl.remove t.table k;
      e.destroy ();
      Spiral_util.Counters.incr "service.plan_evicted_lru")
    victim

(* The key is the seq flag and the raw descriptor string, and an entry
   exists only if that string parsed under this table's [max_total]: a
   hit needs no parse.  The flag is a separate component rather than a
   prefix, so no descriptor can collide with another entry's key. *)
let lookup ?(seq = false) t descriptor =
  let k = (seq, descriptor) in
  match
    with_lock t (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some e ->
            e.last_used <- Unix.gettimeofday ();
            Some e
        | None -> None)
  with
  | Some e -> Ok e
  | None -> (
      match Engine.parse_problem ~limit:t.max_total descriptor with
      | Error e -> Error e
      | Ok problem -> (
          (* plan outside the lock: compilation can take milliseconds and
             Info/stat readers must not stall behind it *)
          match build t ~seq problem descriptor with
          | Error e -> Error e
          | Ok entry ->
              Ok
                (with_lock t (fun () ->
                     match Hashtbl.find_opt t.table k with
                     | Some prior ->
                         (* racing planner lost; drop ours *)
                         entry.destroy ();
                         prior
                     | None ->
                         while Hashtbl.length t.table >= t.max_plans do
                           evict_lru_locked t
                         done;
                         Hashtbl.replace t.table k entry;
                         entry))))

let evict t descriptor =
  List.iter
    (fun k ->
      match
        with_lock t (fun () ->
            match Hashtbl.find_opt t.table k with
            | Some e ->
                Hashtbl.remove t.table k;
                Some e
            | None -> None)
      with
      | Some e ->
          e.destroy ();
          Spiral_util.Counters.incr "service.plan_evicted"
      | None -> ())
    [ (false, descriptor); (true, descriptor) ]

let size t = with_lock t (fun () -> Hashtbl.length t.table)

let destroy_all t =
  let entries =
    with_lock t (fun () ->
        let es = Hashtbl.fold (fun _ e acc -> e :: acc) t.table [] in
        Hashtbl.reset t.table;
        es)
  in
  List.iter (fun e -> e.destroy ()) entries
