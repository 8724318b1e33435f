(* Just enough JSON for the ledger's own files: results, the comparison
   inputs and BENCHMARK.json.  No JSON library ships with the toolchain. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Numbers keep every digit they were measured with; integers print bare.
   JSON has no NaN or infinity, so those become null (the smoke check
   rejects them). *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write b ~indent ~depth v =
  let nl d =
    if indent then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * d) ' ')
    end
  in
  let sep () = Buffer.add_string b (if indent then "," else ", ") in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (number f)
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | Arr [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | Arr l ->
      (* arrays of numbers stay on one line: raw round values read best
         that way *)
      let flat = List.for_all (function Num _ -> true | _ -> false) l in
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then sep ();
          if not flat then nl (depth + 1);
          write b ~indent ~depth:(depth + 1) x)
        l;
      if not flat then nl depth;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then sep ();
          nl (depth + 1);
          write b ~indent ~depth:(depth + 1) (Str k);
          Buffer.add_string b ": ";
          write b ~indent ~depth:(depth + 1) x)
        l;
      nl depth;
      Buffer.add_char b '}'

let to_string ?(indent = false) v =
  let b = Buffer.create 1024 in
  write b ~indent ~depth:0 v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                skip ();
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let of_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string s

let to_file path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ~indent:true v);
      output_char oc '\n')

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let num = function
  | Some (Num f) -> f
  | Some Null -> Float.nan
  | _ -> raise (Parse_error "expected a number")

let str = function Some (Str s) -> s | _ -> raise (Parse_error "expected a string")
let list = function Some (Arr l) -> l | _ -> raise (Parse_error "expected an array")
let fields = function Some (Obj l) -> l | _ -> raise (Parse_error "expected an object")
